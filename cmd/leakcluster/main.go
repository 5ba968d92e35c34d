// Command leakcluster runs the paper's server-side pipeline (Figure 3a):
// it separates a capture into suspicious and normal groups with the payload
// check, samples N suspicious packets, clusters them by the HTTP packet
// distance, and writes the generated conjunction signature set.
//
// Usage:
//
//	leakcluster -in capture.jsonl -device device.json -n 500 -out sigs.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"leaksig/internal/android"
	"leaksig/internal/capture"
	"leaksig/internal/core"
	"leaksig/internal/httpmodel"
	"leaksig/internal/sensitive"
)

func loadDevice(path string) (*android.Device, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var d android.Device
	if err := json.NewDecoder(f).Decode(&d); err != nil {
		return nil, fmt.Errorf("decoding device file: %w", err)
	}
	return &d, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("leakcluster: ")
	var (
		in      = flag.String("in", "capture.jsonl", "capture input")
		device  = flag.String("device", "device.json", "device identity file")
		n       = flag.Int("n", 500, "suspicious packets to sample (0: use all)")
		seed    = flag.Int64("seed", 42, "sampling seed")
		out     = flag.String("out", "signatures.json", "signature set output")
		cutFrac = flag.Float64("cut", 0, "dendrogram cut fraction (0: default)")
		verbose = flag.Bool("v", false, "print per-cluster details")
		dendOut = flag.String("dendrogram", "", "optional dendrogram JSON output path")
		newick  = flag.String("newick", "", "optional Newick tree output path (host-labelled)")
	)
	flag.Parse()

	dev, err := loadDevice(*device)
	if err != nil {
		log.Fatalf("loading device: %v", err)
	}
	set, err := capture.LoadJSONL(*in)
	if err != nil {
		log.Fatalf("loading capture: %v", err)
	}
	oracle := sensitive.NewOracle(dev)
	suspicious := set.Filter(oracle.IsSensitive)
	fmt.Printf("capture: %d packets, %d suspicious\n", set.Len(), suspicious.Len())

	var sample []*httpmodel.Packet
	if *n <= 0 || *n >= suspicious.Len() {
		sample = suspicious.Packets
	} else {
		sample = suspicious.Sample(rand.New(rand.NewSource(*seed)), *n).Packets
	}

	pl := core.NewPipeline(core.Config{CutFraction: *cutFrac})
	dend, clusters := pl.Cluster(sample)
	sigs := pl.GenerateSignatures(sample)
	fmt.Printf("sampled %d packets -> %d clusters -> %d signatures\n",
		len(sample), len(clusters), sigs.Len())

	if *dendOut != "" {
		df, err := os.Create(*dendOut)
		if err != nil {
			log.Fatalf("creating dendrogram file: %v", err)
		}
		if err := dend.WriteJSON(df); err != nil {
			log.Fatalf("writing dendrogram: %v", err)
		}
		if err := df.Close(); err != nil {
			log.Fatalf("closing dendrogram: %v", err)
		}
		fmt.Printf("dendrogram: %s\n", *dendOut)
	}
	if *newick != "" {
		labels := make([]string, len(sample))
		for i, p := range sample {
			labels[i] = fmt.Sprintf("%s#%d", p.Host, p.ID)
		}
		if err := os.WriteFile(*newick, []byte(dend.Newick(labels)+"\n"), 0o644); err != nil {
			log.Fatalf("writing newick: %v", err)
		}
		fmt.Printf("newick: %s\n", *newick)
	}
	if *verbose {
		for _, s := range sigs.Signatures {
			fmt.Println("  " + s.String())
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatalf("creating output: %v", err)
	}
	if err := sigs.WriteJSON(f); err != nil {
		log.Fatalf("writing signatures: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("closing output: %v", err)
	}
	fmt.Printf("signatures: %s\n", *out)
}
