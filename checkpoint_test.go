package flash

import (
	"context"
	"errors"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/bdd"
	"repro/internal/ckpt"
	"repro/internal/hs"
	"repro/internal/obs"
	"repro/internal/topo"
)

// ckptSysOpts is the shared configuration for checkpoint tests; restore
// must be handed the same options (the config hash binds a checkpoint to
// its configuration).
func ckptSysOpts(extra ...Option) []Option {
	return append([]Option{
		WithTopo(topo.Internet2()),
		WithLayout(hs.NewLayout(hs.Field{Name: "dst", Bits: 16})),
		WithSubspaces(2, ""),
		WithChecks(CheckSpec{Name: "loops", Kind: CheckLoopFree}),
	}, extra...)
}

// TestCheckpointRestoreRoundTrip checkpoints a system mid-workload,
// restores it, feeds the identical suffix to both, and requires the
// model fingerprint and verdict table to be indistinguishable — the
// core bounded-time warm-restart property, without the serving plane.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	_, _, msgs := chaosWorkload(t)
	cut := len(msgs) * 3 / 5 // mid-stream, mid-epoch

	sysA, err := NewSystem(ckptSysOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs[:cut] {
		if _, err := sysA.FeedContext(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	info, err := sysA.Checkpoint(dir)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if info.Bytes <= 0 || info.Subspaces == 0 {
		t.Fatalf("implausible checkpoint info: %+v", info)
	}

	sysB, rep, err := Restore(dir, ckptSysOpts()...)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if rep.SkippedCorrupt != 0 {
		t.Fatalf("clean restore skipped %d checkpoints", rep.SkippedCorrupt)
	}

	// The restored system must already agree on verdicts at the cut.
	if !reflect.DeepEqual(sysB.Verdicts(), sysA.Verdicts()) {
		t.Fatalf("verdicts diverge at the cut:\n  live     %v\n  restored %v", sysA.Verdicts(), sysB.Verdicts())
	}

	// Identical suffix into both systems.
	for _, m := range msgs[cut:] {
		if _, err := sysA.FeedContext(context.Background(), m); err != nil {
			t.Fatalf("live suffix: %v", err)
		}
		if _, err := sysB.FeedContext(context.Background(), m); err != nil {
			t.Fatalf("restored suffix: %v", err)
		}
	}
	finalEpoch := msgs[len(msgs)-1].Epoch
	fpA, err := sysA.ModelFingerprint(finalEpoch)
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := sysB.ModelFingerprint(finalEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpB {
		t.Fatalf("model fingerprints diverge:\n  live     %s\n  restored %s", fpA, fpB)
	}
	if !reflect.DeepEqual(sysB.Verdicts(), sysA.Verdicts()) {
		t.Fatalf("final verdicts diverge:\n  live     %v\n  restored %v", sysA.Verdicts(), sysB.Verdicts())
	}
}

// TestRestoreSkipsCorruptCheckpoint: the newest checkpoint is torn (a
// crash mid-write that somehow survived the atomic-rename discipline) —
// restore must log, count, and fall back to the older intact one.
func TestRestoreSkipsCorruptCheckpoint(t *testing.T) {
	_, _, msgs := chaosWorkload(t)
	sys, err := NewSystem(ckptSysOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs[:len(msgs)/2] {
		if _, err := sys.FeedContext(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if _, err := sys.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	good := ckpt.Candidates(dir)
	if len(good) != 1 {
		t.Fatalf("candidates = %v", good)
	}

	// Plant two newer corruptions: a truncated copy and a bit-flipped copy.
	raw, err := os.ReadFile(good[0])
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0xFF
	os.WriteFile(dir+"/"+"ckpt-fffffffffffffffe.fckpt", raw[:len(raw)/3], 0o644)
	os.WriteFile(dir+"/"+"ckpt-ffffffffffffffff.fckpt", flipped, 0o644)

	reg := obs.NewRegistry("flash")
	restored, rep, err := Restore(dir, ckptSysOpts(WithMetrics(reg))...)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if rep.SkippedCorrupt != 2 {
		t.Fatalf("SkippedCorrupt = %d, want 2", rep.SkippedCorrupt)
	}
	if rep.Path != good[0] {
		t.Fatalf("restored from %s, want %s", rep.Path, good[0])
	}
	// The skip must be visible as a metric, not just a return value.
	if n := reg.Sub("ckpt").Snapshot().Counters["bdd_ckpt_skipped_corrupt_total"]; n != 2 {
		t.Fatalf("bdd_ckpt_skipped_corrupt_total = %d, want 2", n)
	}
	if !reflect.DeepEqual(restored.Verdicts(), sys.Verdicts()) {
		t.Fatal("fallback restore diverged from the live system")
	}
}

// TestRestoreExhaustedFallsBackToFullReingest: nothing usable in the
// directory → typed ErrNoCheckpoint (the daemon then boots fresh and
// re-ingests), never a panic.
func TestRestoreExhaustedFallsBackToFullReingest(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := Restore(dir, ckptSysOpts()...); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: err = %v, want ErrNoCheckpoint", err)
	}
	os.WriteFile(dir+"/ckpt-1111111111111111.fckpt", []byte("FLCKPT\x00\x01garbage"), 0o644)
	_, rep, err := Restore(dir, ckptSysOpts()...)
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("all-corrupt dir: err = %v, want ErrNoCheckpoint", err)
	}
	if rep.SkippedCorrupt != 1 {
		t.Fatalf("SkippedCorrupt = %d, want 1", rep.SkippedCorrupt)
	}
}

// TestRestoreRejectsConfigMismatch: a checkpoint taken under one
// configuration must not restore into another (the config hash differs),
// falling through to ErrNoCheckpoint.
func TestRestoreRejectsConfigMismatch(t *testing.T) {
	_, _, msgs := chaosWorkload(t)
	sys, err := NewSystem(ckptSysOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs[:len(msgs)/4] {
		if _, err := sys.FeedContext(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if _, err := sys.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	mismatched := []Option{
		WithTopo(topo.Internet2()),
		WithLayout(hs.NewLayout(hs.Field{Name: "dst", Bits: 16})),
		WithSubspaces(4, ""), // different partitioning
		WithChecks(CheckSpec{Name: "loops", Kind: CheckLoopFree}),
	}
	if _, _, err := Restore(dir, mismatched...); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("config mismatch: err = %v, want ErrNoCheckpoint", err)
	}
}

// TestPruneCheckpoints keeps the newest N and removes stragglers.
func TestPruneCheckpoints(t *testing.T) {
	sys, err := NewSystem(ckptSysOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	_, _, msgs := chaosWorkload(t)
	for _, m := range msgs[:len(msgs)/8] {
		if _, err := sys.FeedContext(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	for i := 0; i < 4; i++ {
		if _, err := sys.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := PruneCheckpoints(dir, 2); err != nil {
		t.Fatal(err)
	}
	if got := len(ckpt.Candidates(dir)); got != 2 {
		t.Fatalf("kept %d checkpoints, want 2", got)
	}
}

// TestSnapshotDoubleRelease: Release is documented idempotent; a second
// call must be a no-op (no panic, no double root-unpin, no negative
// snapshot count) and the system must keep working.
func TestSnapshotDoubleRelease(t *testing.T) {
	_, _, msgs := chaosWorkload(t)
	sys, err := NewSystem(ckptSysOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs[:len(msgs)/8] {
		if _, err := sys.FeedContext(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	snap.Release()
	if !snap.Released() {
		t.Fatal("Released() = false after Release")
	}
	// A fresh snapshot still works and GC still runs.
	again, err := sys.Snapshot()
	if err != nil {
		t.Fatalf("snapshot after double release: %v", err)
	}
	again.Release()
	again.Release()
	sys.GC()
	if _, err := sys.FeedContext(context.Background(), msgs[len(msgs)/8]); err != nil {
		t.Fatalf("feed after double release: %v", err)
	}
}

// TestSnapshotReleaseRacesCheckpoint runs concurrent Feed, Snapshot/
// Release churn, GC, and background checkpoint captures. Run under
// -race this pins the lock discipline between the snapshot root set
// (worker mu) and the checkpoint capture (dispatchMu then worker mu):
// no data race, no deadlock, every checkpoint valid.
func TestSnapshotReleaseRacesCheckpoint(t *testing.T) {
	_, _, msgs := chaosWorkload(t)
	sys, err := NewSystem(ckptSysOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	// Prime so snapshots and checkpoints have something to capture.
	for _, m := range msgs[:len(msgs)/4] {
		if _, err := sys.FeedContext(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan error, 8)

	wg.Add(1)
	go func() { // ingest keeps mutating live state (one forward pass —
		// epochs must stay monotonic per device)
		defer wg.Done()
		for _, m := range msgs[len(msgs)/4:] {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := sys.FeedContext(context.Background(), m); err != nil {
				fail <- err
				return
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() { // snapshot/release churn (one releaser double-releases)
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := sys.Snapshot()
				if err != nil {
					fail <- err
					return
				}
				snap.Release()
				snap.Release()
			}
		}()
	}
	wg.Add(1)
	go func() { // background checkpoint writer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := sys.Checkpoint(dir); err != nil {
				fail <- err
				return
			}
			sys.GC()
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	// Every checkpoint written during the churn must restore cleanly.
	if _, rep, err := Restore(dir, ckptSysOpts()...); err != nil {
		t.Fatalf("restore after churn: %v", err)
	} else if rep.SkippedCorrupt != 0 {
		t.Fatalf("churn produced %d corrupt checkpoints", rep.SkippedCorrupt)
	}
}

// TestRestoreAbsentSubspaceStartsFresh: a subspace the checkpoint does
// not hold starts exactly as NewSystem would start it. A hybrid shard
// replica owning subspace 0 checkpoints (the capture converts it to
// BDD); restoring with the full set brings subspace 0 back on BDD from
// its node dump and starts subspace 1 in the mode a fresh hybrid System
// gives it — atoms.
func TestRestoreAbsentSubspaceStartsFresh(t *testing.T) {
	hybrid := func(extra ...Option) []Option {
		return ckptSysOpts(append([]Option{WithPredicateMode(PredicateHybrid)}, extra...)...)
	}
	replica, err := NewSystem(hybrid(WithSubspaceSet(0))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replica.FeedContext(context.Background(), Msg{Device: 0, Epoch: "e1", Updates: []Update{wildcard(1, Forward(1))}}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := replica.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	sys, rep, err := Restore(dir, hybrid()...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Subspaces != 1 {
		t.Fatalf("restored %d subspaces from the checkpoint, want 1", rep.Subspaces)
	}
	fresh, err := NewSystem(hybrid()...)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"bdd", fresh.PredicateModes()[1]}
	if want[1] != "atoms" {
		t.Fatalf("a fresh hybrid System starts subspace 1 on %q, want atoms", want[1])
	}
	if got := sys.PredicateModes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored modes = %v, want %v", got, want)
	}
}

// TestRestoreEarlierCheckpoint restores testdata/ckpt-subspaces4: four
// subspaces checkpointed three fifths into chaosWorkload by code that
// minted each engine's universe after compiling all four subspace
// prefixes on it, so the recorded universe refs depend on that order.
// Restore now compiles only the subspace's own prefix; hash-consing
// must find the recorded node, and the restored system must then finish
// the stream exactly like one that never stopped.
func TestRestoreEarlierCheckpoint(t *testing.T) {
	const dir = "testdata/ckpt-subspaces4"
	_, _, msgs := chaosWorkload(t)
	cut := len(msgs) * 3 / 5
	opts := ckptSysOpts(WithSubspaces(4, ""))

	c, err := ckpt.Load(ckpt.Candidates(dir)[0])
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, sub := range c.Subspaces {
		w, err := newSysWorker(buildConfig(opts), int(sub.Index), nil)
		if err != nil {
			t.Fatal(err)
		}
		if w.universe != bdd.Ref(sub.Universe) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("every recorded universe ref equals a fresh engine's; the fixture proves nothing")
	}

	restored, rep, err := Restore(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SkippedCorrupt != 0 || rep.Subspaces != 4 {
		t.Fatalf("restore report %+v, want all 4 subspaces and nothing skipped", rep)
	}
	live, err := NewSystem(opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range msgs {
		if i >= cut {
			if _, err := restored.FeedContext(context.Background(), m); err != nil {
				t.Fatalf("restored suffix: %v", err)
			}
		}
		if _, err := live.FeedContext(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	final := msgs[len(msgs)-1].Epoch
	want, err := live.ModelFingerprint(final)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := restored.ModelFingerprint(final); err != nil || got != want {
		t.Fatalf("restored fingerprint %s (err %v), live %s", got, err, want)
	}
	if !reflect.DeepEqual(restored.Verdicts(), live.Verdicts()) {
		t.Fatalf("verdicts diverge:\n  live     %v\n  restored %v", live.Verdicts(), restored.Verdicts())
	}
}
