package flowcontrol

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"leaksig/internal/detect"
	"leaksig/internal/engine"
	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
)

func leakSet() *signature.Set {
	return &signature.Set{Signatures: []*signature.Signature{
		{ID: 0, Tokens: []string{"imei=353918051234563"}, ClusterSize: 3},
		{ID: 1, Tokens: []string{"dev=8a6b1c9f33d200e7"}, ClusterSize: 2},
	}}
}

// proxyThrough issues a request through the proxy handler as a proxy-style
// client would (absolute URL).
func proxyThrough(t *testing.T, proxy *Proxy, method, rawURL, body string) *http.Response {
	t.Helper()
	ps := httptest.NewServer(proxy)
	t.Cleanup(ps.Close)
	proxyURL, _ := url.Parse(ps.URL)
	client := &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(proxyURL)}}
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, rawURL, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestProxyAllowsBenign(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "origin-ok")
	}))
	defer origin.Close()

	proxy := NewProxy(leakSet(), BlockMatched(), nil)
	resp := proxyThrough(t, proxy, "GET", origin.URL+"/index.html?q=weather", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("benign request blocked: %s", resp.Status)
	}
	b, _ := io.ReadAll(resp.Body)
	if string(b) != "origin-ok" {
		t.Errorf("body = %q", b)
	}
	allowed, blocked := proxy.Stats()
	if allowed != 1 || blocked != 0 {
		t.Errorf("stats = %d/%d", allowed, blocked)
	}
}

func TestProxyBlocksLeakInQuery(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("leaking request reached origin")
	}))
	defer origin.Close()

	proxy := NewProxy(leakSet(), BlockMatched(), nil)
	resp := proxyThrough(t, proxy, "GET", origin.URL+"/ad?zone=1&imei=353918051234563", "")
	if resp.StatusCode != http.StatusUnavailableForLegalReasons {
		t.Fatalf("status = %s, want 451", resp.Status)
	}
	if got := resp.Header.Get("X-Leaksig-Matched"); !strings.Contains(got, "0") {
		t.Errorf("matched header = %q", got)
	}
	allowed, blocked := proxy.Stats()
	if allowed != 0 || blocked != 1 {
		t.Errorf("stats = %d/%d", allowed, blocked)
	}
}

func TestProxyBlocksLeakInBody(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("leaking POST reached origin")
	}))
	defer origin.Close()
	proxy := NewProxy(leakSet(), BlockMatched(), nil)
	resp := proxyThrough(t, proxy, "POST", origin.URL+"/collect", "app=x&dev=8a6b1c9f33d200e7&ver=3")
	if resp.StatusCode != http.StatusUnavailableForLegalReasons {
		t.Fatalf("status = %s, want 451", resp.Status)
	}
}

func TestProxyForwardsBodyIntact(t *testing.T) {
	var got string
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		got = string(b)
	}))
	defer origin.Close()
	proxy := NewProxy(leakSet(), BlockMatched(), nil)
	body := "stage=3&score=120&session=abcdef"
	resp := proxyThrough(t, proxy, "POST", origin.URL+"/v1/score", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if got != body {
		t.Errorf("origin saw body %q, want %q", got, body)
	}
}

func TestPromptPolicy(t *testing.T) {
	asked := 0
	allowIt := promptMatched(func(p *httpmodel.Packet, matched []int) bool {
		asked++
		return true
	})
	denyIt := promptMatched(func(p *httpmodel.Packet, matched []int) bool { return false })
	headless := promptMatched(nil)

	pkt := httpmodel.Get("x.example", "/a?imei=353918051234563").Dest(1, 80).Build()
	if got := allowIt.Decide(pkt, []int{0}); got != Allow {
		t.Errorf("confirmed prompt = %v", got)
	}
	if asked != 1 {
		t.Errorf("confirm callback calls = %d", asked)
	}
	if got := denyIt.Decide(pkt, []int{0}); got != Block {
		t.Errorf("denied prompt = %v", got)
	}
	if got := headless.Decide(pkt, []int{0}); got != Block {
		t.Errorf("headless prompt = %v", got)
	}
	if got := allowIt.Decide(pkt, nil); got != Allow {
		t.Errorf("non-matching = %v", got)
	}
}

func TestAuditLog(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer origin.Close()
	proxy := NewProxy(leakSet(), BlockMatched(), nil)
	proxyThrough(t, proxy, "GET", origin.URL+"/benign", "")
	proxyThrough(t, proxy, "GET", origin.URL+"/x?imei=353918051234563", "")
	audit := proxy.Audit()
	if len(audit) != 2 {
		t.Fatalf("audit entries = %d", len(audit))
	}
	if audit[0].Action != Allow || audit[1].Action != Block {
		t.Errorf("audit actions = %v, %v", audit[0].Action, audit[1].Action)
	}
	if len(audit[1].Matched) != 1 || audit[1].Matched[0] != 0 {
		t.Errorf("audit matched = %v", audit[1].Matched)
	}
	if audit[1].Host == "" || audit[1].Path == "" || audit[1].Time.IsZero() {
		t.Errorf("audit entry incomplete: %+v", audit[1])
	}
}

// TestAuditLogIsBounded drives more requests than the audit log keeps:
// the log holds the newest auditCap entries, oldest first.
func TestAuditLogIsBounded(t *testing.T) {
	proxy := NewProxy(leakSet(), BlockMatched(), nil)
	const n = auditCap + 10
	for i := 1; i <= n; i++ {
		req := httptest.NewRequest("GET", fmt.Sprintf("http://t.example/x?seq=%d&imei=353918051234563", i), nil)
		proxy.ServeHTTP(httptest.NewRecorder(), req)
	}
	audit := proxy.Audit()
	if len(audit) != auditCap {
		t.Fatalf("audit entries = %d after %d requests, want %d", len(audit), n, auditCap)
	}
	for j, e := range audit {
		if want := fmt.Sprintf("/x?seq=%d&", j+11); !strings.HasPrefix(e.Path, want) {
			t.Fatalf("audit[%d].Path = %q, want prefix %q", j, e.Path, want)
		}
	}
}

func TestConnectRefused(t *testing.T) {
	proxy := NewProxy(leakSet(), BlockMatched(), nil)
	req := httptest.NewRequest(http.MethodConnect, "example.com:443", nil)
	rw := httptest.NewRecorder()
	proxy.ServeHTTP(rw, req)
	if rw.Code != http.StatusNotImplemented {
		t.Errorf("CONNECT = %d", rw.Code)
	}
}

func TestUpstreamFailure(t *testing.T) {
	proxy := NewProxy(&signature.Set{}, BlockMatched(), nil)
	resp := proxyThrough(t, proxy, "GET", "http://127.0.0.1:1/unreachable", "")
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("unreachable upstream = %s, want 502", resp.Status)
	}
}

func TestActionString(t *testing.T) {
	if Allow.String() != "allow" || Block.String() != "block" ||
		Prompt.String() != "prompt" || Action(9).String() != "unknown" {
		t.Error("action names")
	}
}

// TestEngineBackend vets requests through the streaming engine's
// synchronous matcher: the proxy inherits the engine's hot reload — one
// Reload flips the verdict for both the stream and the proxy.
func TestEngineBackend(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer origin.Close()

	eng := engine.New(&signature.Set{}, engine.Config{Shards: 1})
	defer eng.Close()
	proxy := NewProxyWith(eng, BlockMatched(), nil)
	if proxy.backend != Backend(eng) {
		t.Fatal("the streaming engine is not the proxy's backend")
	}

	leakURL := origin.URL + "/x?imei=353918051234563"
	resp := proxyThrough(t, proxy, "GET", leakURL, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty engine should allow: %s", resp.Status)
	}

	eng.Reload(leakSet())
	resp = proxyThrough(t, proxy, "GET", leakURL, "")
	if resp.StatusCode != http.StatusUnavailableForLegalReasons {
		t.Fatalf("after engine reload: %s, want 451", resp.Status)
	}
}

func TestSetBackendNil(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer origin.Close()
	proxy := NewProxyWith(nil, BlockMatched(), nil)
	if _, ok := proxy.backend.(*detect.Engine); !ok {
		t.Error("nil backend should degrade to an empty conjunction engine")
	}
	resp := proxyThrough(t, proxy, "GET", origin.URL+"/x?imei=353918051234563", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nil backend should allow everything: %s", resp.Status)
	}
}
