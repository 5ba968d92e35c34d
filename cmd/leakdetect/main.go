// Command leakdetect applies a generated signature set to a capture and
// reports detections; with the device identity it also scores the result
// using the paper's TP/FN/FP equations (§V-B).
//
// Usage:
//
//	leakdetect -in capture.jsonl -sigs sigs.json [-device device.json] [-n 500]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"leaksig/internal/android"
	"leaksig/internal/capture"
	"leaksig/internal/detect"
	"leaksig/internal/report"
	"leaksig/internal/sensitive"
	"leaksig/internal/signature"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("leakdetect: ")
	var (
		in     = flag.String("in", "capture.jsonl", "capture input")
		sigsIn = flag.String("sigs", "signatures.json", "signature set")
		device = flag.String("device", "", "device identity file (enables scoring)")
		n      = flag.Int("n", 0, "training sample size used when generating the signatures")
		top    = flag.Int("top", 10, "show this many most-hit signatures")
	)
	flag.Parse()

	set, err := capture.LoadJSONL(*in)
	if err != nil {
		log.Fatalf("loading capture: %v", err)
	}
	sigs, err := signature.ReadFile(*sigsIn)
	if err != nil {
		log.Fatal(err)
	}
	eng := detect.NewEngine(sigs)

	hits := make(map[int]int)
	detected := 0
	for _, p := range set.Packets {
		ids := eng.MatchPacket(p)
		if len(ids) > 0 {
			detected++
		}
		for _, id := range ids {
			hits[id]++
		}
	}
	fmt.Printf("capture: %d packets; %d signatures; %d packets matched\n",
		set.Len(), sigs.Len(), detected)

	tbl := report.NewTable("most-hit signatures", "sig", "hits", "tokens")
	shown := 0
	for _, s := range sigs.Signatures {
		if hits[s.ID] == 0 {
			continue
		}
		if shown >= *top {
			break
		}
		tok := ""
		if len(s.Tokens) > 0 {
			tok = s.Tokens[0]
			if len(tok) > 48 {
				tok = tok[:48] + "..."
			}
		}
		tbl.AddRow(s.ID, hits[s.ID], fmt.Sprintf("%d tokens, first %q", len(s.Tokens), tok))
		shown++
	}
	fmt.Print(tbl.String())

	if *device == "" {
		return
	}
	df, err := os.Open(*device)
	if err != nil {
		log.Fatalf("opening device: %v", err)
	}
	var dev android.Device
	err = json.NewDecoder(df).Decode(&dev)
	df.Close()
	if err != nil {
		log.Fatalf("decoding device: %v", err)
	}
	oracle := sensitive.NewOracle(&dev)
	labels := make([]bool, set.Len())
	for i, p := range set.Packets {
		labels[i] = oracle.IsSensitive(p)
	}
	res := detect.Evaluate(eng, set, labels, *n)
	fmt.Printf("\nscoring against payload check (N=%d):\n", *n)
	fmt.Printf("  sensitive %d / normal %d\n", res.SensitiveTotal, res.NormalTotal)
	fmt.Printf("  TP %s  FN %s  FP %s\n",
		report.Percent(res.TruePositiveRate),
		report.Percent(res.FalseNegativeRate),
		report.Percent(res.FalsePositiveRate))
}
