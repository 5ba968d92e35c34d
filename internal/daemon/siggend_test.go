package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"leaksig/internal/httpmodel"
	"leaksig/internal/siggen"
	"leaksig/internal/sigserver"
)

// TestSiggendKeysAppLessMissesByHost feeds siggend -tenant-by app
// -tenant-sets the misses flowproxy forwards, which name no app: they
// must be learned as their host's tenant, and so publish a named set
// under the host, instead of landing in the unattributed tenant whose
// flows back only the global set.
func TestSiggendKeysAppLessMissesByHost(t *testing.T) {
	captureLog(t)
	srv := sigserver.New()
	server := httptest.NewServer(srv.HandlerWithPublish(""))
	defer server.Close()

	var stdin bytes.Buffer
	enc := json.NewEncoder(&stdin)
	for i := 0; i < 40; i++ {
		enc.Encode(httpmodel.Get("ads.example", "/track").ID(int64(i)).
			Query("zone", "7").Query("device_id", "IMEI-358240051111110").Query("aid", "9774d56d682e549c").
			UserAgent("Dalvik/1.6.0").Build())
	}
	err := Siggend{
		Server: server.URL, TenantBy: "app", TenantSets: true,
		Reservoir: 256, MaxTenants: 64, MaxClusters: 64, MaxMembers: 64, MinCluster: 3,
		Join: 0.22, MaxFP: 0.01, MinSamples: 8, Seed: 1,
	}.Run(context.Background(), &stdin, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if set, version, ok := srv.CurrentNamed("ads.example"); !ok || version == 0 || set.Len() == 0 {
		global, gv := srv.Current()
		t.Fatalf("no set named for the host (global set v%d holds %d signatures; server %+v)", gv, global.Len(), srv.Stats())
	}
}

// TestSiggendObserveRequiresToken runs siggend with -observe-token:
// POST /observe without the token, with a wrong one, or with the right
// one outside a Bearer header must answer 401 and observe nothing; with
// `Authorization: Bearer <token>` the packet is observed.
func TestSiggendObserveRequiresToken(t *testing.T) {
	captureLog(t)
	const token = "s3cret"
	d := siggendDefaults()
	d.ObserveToken, d.Interval = token, time.Hour
	base, stop := runSiggend(t, d)
	defer stop()

	body := ndjson(t, []*httpmodel.Packet{httpmodel.Get("ads.example", "/t?udid=f3a9c1d2").ID(1).Build()})
	post := func(auth string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+"/observe", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	observed := func() int {
		t.Helper()
		var st struct{ Observed int }
		resp, err := http.Get(base + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Observed
	}

	for _, auth := range []string{"", "Bearer wrong", "Bearer " + token + "x", token, "Basic " + token} {
		if code := post(auth); code != http.StatusUnauthorized {
			t.Errorf("POST /observe with Authorization %q answered %d, want 401", auth, code)
		}
	}
	if n := observed(); n != 0 {
		t.Fatalf("siggend observed %d packets from unauthorized posts, want 0", n)
	}
	if code := post("Bearer " + token); code != http.StatusOK {
		t.Fatalf("POST /observe with the bearer token answered %d, want 200", code)
	}
	if n := observed(); n != 1 {
		t.Fatalf("siggend observed %d packets after an authorized post, want 1", n)
	}
}

// TestSiggendCheckpointsOnShutdownMidObserve cancels a checkpointing
// siggend while two clients are still posting to /observe: Run must
// return nil, and the learner checkpoint must be on disk and restore.
func TestSiggendCheckpointsOnShutdownMidObserve(t *testing.T) {
	captureLog(t)
	_, srvURL := newSigserver(t)
	checkpoint := filepath.Join(t.TempDir(), "learner.ckpt")
	d := siggendDefaults()
	d.Server, d.Checkpoint, d.Interval = srvURL, checkpoint, time.Hour
	base, stop := runSiggend(t, d)

	acks := make(chan struct{}, 64)
	var posters sync.WaitGroup
	for c := 0; c < 2; c++ {
		posters.Add(1)
		go func(c int) {
			defer posters.Done()
			for b := 0; ; b++ {
				var body bytes.Buffer
				enc := json.NewEncoder(&body)
				for i := 0; i < 50; i++ {
					id := int64(c)*1_000_000 + int64(b)*50 + int64(i)
					enc.Encode(httpmodel.Get("ads.example", fmt.Sprintf("/t?n=%d&udid=f3a9c1d2", id)).ID(id).App("com.a").Build())
				}
				resp, err := http.Post(base+"/observe", "application/x-ndjson", &body)
				if err != nil {
					return // the listener went away
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				select {
				case acks <- struct{}{}:
				default:
				}
			}
		}(c)
	}
	for i := 0; i < 4; i++ {
		<-acks
	}
	stop() // mid-intake: both clients are still posting
	posters.Wait()

	if fi, err := os.Stat(checkpoint); err != nil || fi.Size() == 0 {
		t.Fatalf("learner checkpoint after shutdown: %v", err)
	}
	svc := siggen.NewService(siggen.Config{CheckpointPath: checkpoint})
	defer svc.Close()
	if st := svc.Stats(); !st.CheckpointRestored {
		t.Fatalf("the checkpoint written at shutdown does not restore: %+v", st)
	}
}
