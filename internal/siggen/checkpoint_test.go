package siggen

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
)

// feedAndEpoch pushes n packets from gen into svc under tenant and runs
// one epoch.
func feedAndEpoch(t *testing.T, svc *Service, tenant string, n int, gen func(string, int) *httpmodel.Packet) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !svc.Observe(tenant, gen(tenant, i)) {
			t.Fatalf("observe %d rejected", i)
		}
	}
	if _, err := svc.RunEpoch(context.Background()); err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
}

// beaconPacket is a second leak population with token material disjoint
// from leakPacket, so feeding it genuinely changes the catalog.
func beaconPacket(app string, i int) *httpmodel.Packet {
	return httpmodel.Get("metrics.collector.example", "/v2/beacon").
		App(app).
		ID(int64(2000+i)).
		Dest(ipaddr.FromOctets(10, 9, 8, 7), 80).
		Query("s", fmt.Sprintf("%d", i%5)).
		Query("android_id", "a1b2c3d4e5f60718").
		Query("serial", "SN-998877665544").
		UserAgent("Dalvik/2.1.0").
		Build()
}

func TestCheckpointRestoresCatalogAndVersions(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "learner.ckpt")

	srv := sigserver.New()
	svc := NewService(Config{
		TenantSets:     true,
		CheckpointPath: ckpt,
		Publisher:      serverPublisher{Server: srv},
	})
	feedAndEpoch(t, svc, "com.app.alpha", 40, leakPacket)
	stBefore := svc.Stats()
	if stBefore.Catalog == 0 {
		t.Fatal("learner published nothing; test premise broken")
	}
	if stBefore.CheckpointSaves == 0 {
		t.Fatalf("epoch did not checkpoint: %+v", stBefore)
	}
	svc.Close()

	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}

	// "Restart": a fresh service against the same (still-live) server
	// restores the catalog and continues each name's version sequence
	// instead of restarting at 1 (which the server would reject).
	svc2 := NewService(Config{
		TenantSets:     true,
		CheckpointPath: ckpt,
		Publisher:      serverPublisher{Server: srv},
	})
	defer svc2.Close()
	st := svc2.Stats()
	if !st.CheckpointRestored {
		t.Fatal("restart did not restore the checkpoint")
	}
	if st.Catalog != stBefore.Catalog {
		t.Fatalf("catalog = %d after restore, want %d", st.Catalog, stBefore.Catalog)
	}
	if st.LastVersion != stBefore.LastVersion {
		t.Fatalf("global version = %d after restore, want %d", st.LastVersion, stBefore.LastVersion)
	}
	for name, v := range stBefore.NamedVersions {
		if st.NamedVersions[name] != v {
			t.Fatalf("named version %q = %d, want %d", name, st.NamedVersions[name], v)
		}
	}

	// An unchanged catalog publishes nothing new (fingerprint carried
	// over), so versions hold; new content advances them past the
	// restored point without a stale-version rejection.
	feedAndEpoch(t, svc2, "com.app.beta", 40, beaconPacket)
	st2 := svc2.Stats()
	if st2.LastVersion <= stBefore.LastVersion {
		t.Fatalf("version after new content = %d, want > %d", st2.LastVersion, stBefore.LastVersion)
	}
	if st2.PublishErrors != 0 {
		t.Fatalf("publish errors after restore: %+v", st2)
	}
}

func TestCheckpointRestoresPendingRetry(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "learner.ckpt")

	// A publisher that always fails: the epoch parks its sets as
	// pending, and the checkpoint must carry them.
	svc := NewService(Config{
		CheckpointPath: ckpt,
		Publisher:      failingPublisher{},
	})
	for i := 0; i < 40; i++ {
		svc.Observe("com.app.alpha", leakPacket("com.app.alpha", i))
	}
	if _, err := svc.RunEpoch(context.Background()); err == nil {
		t.Fatal("publish against failing publisher succeeded")
	}
	svc.Close()

	// Restart against a working server: the restored pending set must
	// deliver on the next epoch without new traffic.
	srv := sigserver.New()
	svc2 := NewService(Config{
		CheckpointPath: ckpt,
		Publisher:      serverPublisher{Server: srv},
	})
	defer svc2.Close()
	if _, err := svc2.RunEpoch(context.Background()); err != nil {
		t.Fatalf("retry epoch: %v", err)
	}
	if _, v := srv.Current(); v == 0 {
		t.Fatal("restored pending set never delivered")
	}
}

func TestCheckpointCorruptStartsFresh(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "learner.ckpt")
	if err := os.WriteFile(ckpt, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := NewService(Config{CheckpointPath: ckpt})
	defer svc.Close()
	if st := svc.Stats(); st.CheckpointRestored {
		t.Fatal("corrupt checkpoint claimed restored")
	}
	// The service is fully functional and overwrites the corrupt file
	// on its next epoch.
	for i := 0; i < 10; i++ {
		svc.Observe("t", leakPacket("t", i))
	}
	if _, err := svc.RunEpoch(context.Background()); err != nil {
		t.Fatalf("epoch over corrupt checkpoint: %v", err)
	}
	if st := svc.Stats(); st.CheckpointSaves == 0 {
		t.Fatalf("checkpoint not rewritten: %+v", st)
	}
}

// TestCheckpointUnopenableCounted: a checkpoint path that cannot be
// opened does not stop the learner; the failed open and each save that
// then cannot happen count as checkpoint errors.
func TestCheckpointUnopenableCounted(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "missing-dir", "learner.ckpt")
	svc := NewService(Config{CheckpointPath: ckpt})
	defer svc.Close()
	if st := svc.Stats(); st.CheckpointErrors != 1 || st.CheckpointRestored {
		t.Fatalf("after an unopenable checkpoint: %+v", st)
	}
	for i := 0; i < 10; i++ {
		svc.Observe("t", leakPacket("t", i))
	}
	if _, err := svc.RunEpoch(context.Background()); err != nil {
		t.Fatalf("epoch without a checkpoint: %v", err)
	}
	if st := svc.Stats(); st.CheckpointErrors != 2 || st.CheckpointSaves != 0 {
		t.Fatalf("save without a checkpoint: %+v", st)
	}
}

// TestCheckpointRestoresLegacyFile restores from a checkpoint in the
// format older releases wrote (an LSCKPT1 header, one record), written
// by a service that saw 8 misses and one epoch: the restored service
// reports the version and catalog that service had.
func TestCheckpointRestoresLegacyFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "durable", "testdata", "legacy-learner.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "learner.ckpt")
	if err := os.WriteFile(ckpt, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	svc := NewService(Config{CheckpointPath: ckpt})
	defer svc.Close()
	st := svc.Stats()
	if !st.CheckpointRestored || st.LastVersion != 1 || st.Catalog != 1 {
		t.Fatalf("legacy checkpoint restored=%v version=%d catalog=%d, want true/1/1", st.CheckpointRestored, st.LastVersion, st.Catalog)
	}
}

// failingPublisher rejects every publish, simulating a dead sigserver.
type failingPublisher struct{}

func (failingPublisher) Publish(context.Context, string, *signature.Set) (int64, error) {
	return 0, fmt.Errorf("injected: server down")
}
func (failingPublisher) CurrentVersion(context.Context, string) (int64, error) {
	return 0, fmt.Errorf("injected: server down")
}
