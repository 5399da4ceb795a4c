package harness

import (
	"testing"

	"repro/internal/apps"
)

// lookupPack returns the registered pack for cfg's configuration, or nil.
func lookupPack(cfg CampaignConfig) *snapshotPack {
	key := packKey{app: cfg.App.Name(), params: cfg.Params, sample: cfg.SampleEvery}
	packMu.Lock()
	defer packMu.Unlock()
	return packs[key]
}

// TestSnapshotPackSharedAcrossCampaigns checks that campaigns over the
// same configuration share one pack: a plain (Snapshots: 0) campaign
// leaves its golden cuts behind, a following snapshot campaign schedules
// against those very cuts, and a third reuses the captured snapshots
// instead of re-capturing — all three producing byte-identical studies.
func TestSnapshotPackSharedAcrossCampaigns(t *testing.T) {
	resetPacks()
	t.Cleanup(resetPacks)
	app := apps.All()[0]
	plain := CampaignConfig{
		App:    app,
		Params: app.TestParams(), Sampling: Sampling{Runs: 10, Seed: 77}, Execution: Execution{SampleEvery: 64, Workers: 1},
	}
	want, err := RunCampaign(plain)
	if err != nil {
		t.Fatal(err)
	}
	p := lookupPack(plain)
	if p == nil {
		t.Fatal("plain campaign left no pack behind")
	}
	if len(p.cuts) == 0 || len(p.snaps) != 0 {
		t.Fatalf("plain campaign: cuts=%d snaps=%d, want cuts and no snaps", len(p.cuts), len(p.snaps))
	}
	cutsBefore := &p.cuts[0]

	snapped := plain
	snapped.Snapshots = 3
	first, err := RunCampaign(snapped)
	if err != nil {
		t.Fatal(err)
	}
	if lookupPack(snapped) != p {
		t.Fatal("snapshot campaign built a fresh pack instead of sharing")
	}
	if &p.cuts[0] != cutsBefore {
		t.Error("snapshot campaign replaced the cuts the plain campaign recorded")
	}
	if len(p.snaps) == 0 {
		t.Fatal("snapshot campaign captured nothing")
	}
	snapsBefore := len(p.snaps)

	second, err := RunCampaign(snapped)
	if err != nil {
		t.Fatal(err)
	}
	if lookupPack(snapped) != p {
		t.Fatal("second campaign built a fresh pack instead of sharing")
	}
	if &p.cuts[0] != cutsBefore {
		t.Error("second campaign replaced the pack's cuts")
	}
	if len(p.snaps) != snapsBefore {
		t.Errorf("second campaign over identical pending IDs recaptured: %d snaps, had %d",
			len(p.snaps), snapsBefore)
	}
	assertStudyIdentical(t, "pack-shared snapshot campaign", want, first)
	assertStudyIdentical(t, "pack-shared second campaign", want, second)
}

// TestPackLRUEviction fills the registry past its capacity with plain
// campaigns — every campaign goes through a pack — and checks the oldest
// configuration is evicted.
func TestPackLRUEviction(t *testing.T) {
	resetPacks()
	t.Cleanup(resetPacks)
	app := apps.All()[0]
	base := CampaignConfig{
		App:    app,
		Params: app.TestParams(), Sampling: Sampling{Runs: 2, Seed: 1}, Execution: Execution{SampleEvery: 64, Workers: 1},
	}
	firstKey := packKey{app: app.Name(), params: base.Params, sample: base.SampleEvery}
	for i := 0; i <= maxPacks; i++ {
		cfg := base
		cfg.SampleEvery = uint64(64 + i)
		if _, err := RunCampaign(cfg); err != nil {
			t.Fatal(err)
		}
	}
	packMu.Lock()
	defer packMu.Unlock()
	if len(packs) != maxPacks {
		t.Fatalf("registry holds %d packs, want %d", len(packs), maxPacks)
	}
	if _, ok := packs[firstKey]; ok {
		t.Error("least recently used pack survived eviction")
	}
}
