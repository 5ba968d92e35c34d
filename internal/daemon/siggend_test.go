package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"

	"leaksig/internal/httpmodel"
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
