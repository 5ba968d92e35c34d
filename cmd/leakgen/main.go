// Command leakgen fabricates the synthetic measurement dataset: a capture
// of HTTP packets from a population of Android applications calibrated to
// the paper's Tables I-III and Figure 2, plus the device identity file the
// other tools need to re-derive ground truth.
//
// The capture is JSONL, one packet per line, in the schema the daemons
// ingest as NDJSON.
//
// Usage:
//
//	leakgen -out capture.jsonl -device device.json [-seed 1]
//	        [-apps 1188] [-packets 107859] [-orgs orgs.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"leaksig/internal/sensitive"
	"leaksig/internal/trafficgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("leakgen: ")
	var (
		seed    = flag.Int64("seed", 1, "generation seed")
		apps    = flag.Int("apps", 1188, "number of applications")
		packets = flag.Int("packets", 107859, "total packet budget")
		out     = flag.String("out", "capture.jsonl", "capture output path")
		device  = flag.String("device", "device.json", "device identity output path")
		orgs    = flag.String("orgs", "", "optional path for the organization/IP-block registry (WHOIS data)")
	)
	flag.Parse()

	ds := trafficgen.Generate(trafficgen.Config{
		Seed:         *seed,
		NumApps:      *apps,
		TotalPackets: *packets,
	})

	if err := ds.Capture.SaveJSONL(*out); err != nil {
		log.Fatalf("writing capture: %v", err)
	}

	df, err := os.Create(*device)
	if err != nil {
		log.Fatalf("creating device file: %v", err)
	}
	enc := json.NewEncoder(df)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ds.Device); err != nil {
		log.Fatalf("writing device file: %v", err)
	}
	if err := df.Close(); err != nil {
		log.Fatalf("closing device file: %v", err)
	}

	if *orgs != "" {
		blocks := ds.Universe.OrgBlocks()
		reg := make(map[string]string, len(blocks))
		for org, b := range blocks {
			reg[org] = b.String()
		}
		of, err := os.Create(*orgs)
		if err != nil {
			log.Fatalf("creating orgs file: %v", err)
		}
		enc := json.NewEncoder(of)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reg); err != nil {
			log.Fatalf("writing orgs file: %v", err)
		}
		if err := of.Close(); err != nil {
			log.Fatalf("closing orgs file: %v", err)
		}
		fmt.Printf("orgs:    %s (%d allocations)\n", *orgs, len(reg))
	}

	oracle := sensitive.NewOracle(ds.Device)
	susp := 0
	for _, p := range ds.Capture.Packets {
		if oracle.IsSensitive(p) {
			susp++
		}
	}
	fmt.Printf("generated %d packets from %d apps (%d suspicious, %d normal)\n",
		ds.Capture.Len(), len(ds.Apps), susp, ds.Capture.Len()-susp)
	fmt.Printf("capture: %s\ndevice:  %s\n", *out, *device)
}
