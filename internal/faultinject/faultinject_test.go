package faultinject

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	cfg, err := parse("seed=7, reset=0.1, latency_p=0.25, latency=20ms, error=0.05, partial=0.1, blackhole=0.01")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if cfg.Seed != 7 || cfg.ResetP != 0.1 || cfg.LatencyP != 0.25 ||
		cfg.Latency != 20*time.Millisecond || cfg.ErrorP != 0.05 ||
		cfg.PartialP != 0.1 || cfg.BlackholeP != 0.01 {
		t.Fatalf("cfg = %+v", cfg)
	}
}

func TestParseDefaultsLatency(t *testing.T) {
	cfg, err := parse("latency_p=0.5")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if cfg.Latency != 20*time.Millisecond {
		t.Fatalf("latency default = %v, want 20ms", cfg.Latency)
	}
}

func TestParseRejectsBadInput(t *testing.T) {
	for _, spec := range []string{"reset=1.5", "bogus=1", "reset", "latency=notadur"} {
		if _, err := parse(spec); err == nil {
			t.Fatalf("Parse(%q): want error", spec)
		}
	}
}

func TestParseEmptyIsInert(t *testing.T) {
	cfg, err := parse("")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if newInjector(cfg) != nil {
		t.Fatal("empty spec should build a nil injector")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if got := in.wrapTransport(http.DefaultTransport); got != http.DefaultTransport {
		t.Fatal("nil injector should return base transport unchanged")
	}
	c := &http.Client{}
	if got := in.Client(c); got != c {
		t.Fatal("nil injector should return client unchanged")
	}
	if st := in.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
	if in.String() != "faults off" {
		t.Fatalf("nil String = %q", in.String())
	}
}

func TestInjectedResetsAreDeterministic(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	run := func(seed int64) []bool {
		in := newInjector(config{Seed: seed, ResetP: 0.5})
		client := in.Client(srv.Client())
		var outcomes []bool
		for i := 0; i < 40; i++ {
			resp, err := client.Get(srv.URL)
			if err != nil {
				if !strings.Contains(err.Error(), errInjectedReset.Error()) {
					t.Fatalf("unexpected error kind: %v", err)
				}
				outcomes = append(outcomes, false)
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			outcomes = append(outcomes, true)
		}
		if st := in.Stats(); st.Resets == 0 || st.Resets == 40 {
			t.Fatalf("resets = %d, want some but not all of 40", st.Resets)
		}
		return outcomes
	}

	a, b := run(99), run(99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: same seed diverged", i)
		}
	}
}

func TestInjected5xx(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	in := newInjector(config{Seed: 3, ErrorP: 1})
	client := in.Client(srv.Client())
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if st := in.Stats(); st.Errors5xx != 1 {
		t.Fatalf("errors_5xx = %d, want 1", st.Errors5xx)
	}
}

func TestInjectedPartialBody(t *testing.T) {
	payload := strings.Repeat("x", 4096)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, payload)
	}))
	defer srv.Close()

	in := newInjector(config{Seed: 3, PartialP: 1})
	client := in.Client(srv.Client())
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("read error = %v, want unexpected EOF", err)
	}
	if len(body) >= len(payload) {
		t.Fatalf("read %d bytes, want a strict prefix of %d", len(body), len(payload))
	}
}

func TestInjectedBlackholeHonorsContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	in := newInjector(config{Seed: 3, BlackholeP: 1})
	client := in.Client(srv.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	start := time.Now()
	_, err := client.Do(req)
	if err == nil {
		t.Fatal("blackholed request should fail")
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("blackhole returned in %v, want to hold until context deadline", elapsed)
	}
	if st := in.Stats(); st.Blackholes != 1 {
		t.Fatalf("blackholes = %d, want 1", st.Blackholes)
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv("LEAKSIG_FAULTS", "seed=5,reset=0.2")
	t.Setenv("FAULT_SEED", "77")
	in, err := fromEnv()
	if err != nil {
		t.Fatalf("fromEnv: %v", err)
	}
	if in == nil {
		t.Fatal("fromEnv returned nil injector for a live spec")
	}
	if in.cfg.Seed != 77 {
		t.Fatalf("seed = %d, want FAULT_SEED override 77", in.cfg.Seed)
	}

	t.Setenv("LEAKSIG_FAULTS", "")
	in, err = fromEnv()
	if err != nil || in != nil {
		t.Fatalf("empty env: injector=%v err=%v, want nil/nil", in, err)
	}
}
