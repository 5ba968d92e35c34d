package siggen

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"leaksig/internal/eval"
	"leaksig/internal/signature"
	"leaksig/internal/trafficgen"
)

// TestPublishedFingerprintsGolden runs the learner over trafficgen
// captures for several epochs and compares every set it publishes, by
// name, signature count and a hash of setFingerprint, with
// testdata/published_fingerprints.txt. The file was recorded with
// compress/flate behind the NCD terms; any change to a compressed
// length or a host edit distance the learner relies on moves a medoid
// or a signature and fails here.
func TestPublishedFingerprintsGolden(t *testing.T) {
	var got []string
	for _, seed := range []int64{3, 5} {
		env := eval.NewEnv(trafficgen.Config{Seed: seed, NumApps: 80, TotalPackets: 4000})
		stream := env.SampleSuspicious(seed, 480)
		epoch := 0
		svc := NewService(Config{
			Cluster:    ClusterConfig{MaxClusters: 24, MaxMembers: 16, ElectSample: 6, StaleEpochs: 2},
			Seed:       seed,
			TenantSets: true,
			// One private reservoir, the rest overflow: misses cluster in
			// arrival order (see TestServiceMatchesExhaustive).
			MaxTenantReservoirs: 1,
			Benign:              env.Normal.Packets[:400],
			OnPublish: func(name string, set *signature.Set) {
				if name == "" {
					name = "(global)"
				}
				sum := sha256.Sum256([]byte(setFingerprint(set)))
				got = append(got, fmt.Sprintf("seed %d epoch %d %s: %d signatures %x",
					seed, epoch, name, set.Len(), sum[:8]))
			},
		})
		const epochs = 6
		per := len(stream) / epochs
		for ; epoch < epochs; epoch++ {
			for i, p := range stream[epoch*per : (epoch+1)*per] {
				if !svc.Observe(fmt.Sprintf("tenant-%d", i%3), p) {
					t.Fatal("intake dropped a miss")
				}
			}
			if _, err := svc.RunEpoch(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		svc.Close()
	}
	path := filepath.Join("testdata", "published_fingerprints.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g := strings.Join(got, "\n") + "\n"; g != string(want) {
		t.Fatalf("published sets differ from %s\n got:\n%s\nwant:\n%s", path, g, want)
	}
}
