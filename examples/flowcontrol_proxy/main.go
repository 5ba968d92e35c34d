// flowcontrol_proxy demonstrates the paper's deployment (Figure 3) end to
// end on localhost:
//
//  1. a signature server publishes signatures learned from a synthetic
//     capture (Figure 3a),
//  2. a flow-control proxy fetches them and starts vetting traffic
//     (Figure 3b),
//  3. a simulated application sends benign and leaking requests through
//     the proxy: the benign ones reach the origin, the leaking ones are
//     blocked, and the audit log records every decision.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"

	"leaksig/internal/android"
	"leaksig/internal/core"
	"leaksig/internal/flowcontrol"
	"leaksig/internal/sensitive"
	"leaksig/internal/sigserver"
	"leaksig/internal/trafficgen"
)

func main() {
	log.SetFlags(0)

	// --- Figure 3a: collect traffic, cluster, publish signatures. ---
	fmt.Println("[server] generating capture and learning signatures...")
	ds := trafficgen.Generate(trafficgen.Config{Seed: 4, NumApps: 150, TotalPackets: 12000})
	oracle := sensitive.NewOracle(ds.Device)
	suspicious := ds.Capture.Filter(oracle.IsSensitive)
	sample := suspicious.Sample(rand.New(rand.NewSource(1)), 250)
	sigs := core.NewPipeline(core.Config{}).GenerateSignatures(sample.Packets)
	fmt.Printf("[server] %d signatures learned from %d sampled packets\n", sigs.Len(), sample.Len())

	srv := sigserver.New()
	srv.Publish("", sigs)
	sigHTTP := httptest.NewServer(srv.Handler())
	defer sigHTTP.Close()
	fmt.Printf("[server] signature server at %s\n", sigHTTP.URL)

	// --- Figure 3b: the device-side proxy fetches and enforces. ---
	client := sigserver.NewClient(sigHTTP.URL, nil)
	fetched, _, err := client.Fetch(context.Background())
	if err != nil {
		log.Fatalf("fetching signatures: %v", err)
	}
	proxy := flowcontrol.NewProxy(fetched, flowcontrol.BlockMatched(), nil)
	proxyHTTP := httptest.NewServer(proxy)
	defer proxyHTTP.Close()
	fmt.Printf("[device] flow-control proxy at %s with %d signatures\n\n", proxyHTTP.URL, fetched.Len())

	// An origin standing in for the ad network / web services.
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "served "+r.URL.Path)
	}))
	defer origin.Close()

	// --- A simulated application sends traffic through the proxy. ---
	proxyURL, _ := url.Parse(proxyHTTP.URL)
	appClient := &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(proxyURL)}}
	device := ds.Device

	requests := []struct {
		label string
		url   string
	}{
		{"benign weather lookup", origin.URL + "/api/weather?city=tokyo&units=metric"},
		{"ad request leaking Android ID", origin.URL + "/ad/v2/fetch?zone=12&aid=" + device.AndroidID + "&fmt=json&seq=77"},
		{"benign image fetch", origin.URL + "/assets/img/logo1.png"},
		{"tracker leaking hashed Android ID", origin.URL + "/v1/imp?pub=abc123&dev=" + sensitive.MD5Hex(device.AndroidID) + "&sz=320x50&c=deadbeef"},
		{"benign search", origin.URL + "/search?q=recipe"},
	}
	for _, rq := range requests {
		resp, err := appClient.Get(rq.url)
		if err != nil {
			log.Fatalf("request failed: %v", err)
		}
		resp.Body.Close()
		verdict := "ALLOWED"
		if resp.StatusCode == http.StatusUnavailableForLegalReasons {
			verdict = "BLOCKED"
		}
		fmt.Printf("[app] %-38s -> %s (%d)\n", rq.label, verdict, resp.StatusCode)
	}

	// --- The audit trail the user can review. ---
	fmt.Println("\n[device] audit log:")
	for _, e := range proxy.Audit() {
		fmt.Printf("  %s %-22s %-40s %s (signatures %v)\n",
			e.Time.Format("15:04:05"), e.Host, truncate(e.Path, 40), e.Action, e.Matched)
	}
	allowed, blocked := proxy.Stats()
	fmt.Printf("\n[device] %d allowed, %d blocked — device: %s (%s)\n",
		allowed, blocked, device.Model, describe(device))
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

func describe(d *android.Device) string {
	return "Android " + d.OSVersion + ", " + d.Carrier.Name
}
