package harness

import (
	"fmt"
	"sync"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/transform"
)

// Shared golden packs.
//
// A pack is the process-wide cache of everything a campaign derives from
// the golden execution of one (app, params, sampleEvery, protect)
// configuration: the instrumented program and its site table, the
// quiesce-point cuts, and the captured snapshots, keyed by quiesce seq.
// Every campaign goes through its configuration's pack, whatever its
// Snapshots value, and runs exactly one golden execution (golden below)
// on its own worker-0 Reuse; the pack itself pins no run infrastructure.
// Snapshot placement is purely a performance strategy — results are
// byte-identical with any placement, including none — so sharing cuts and
// captures across campaigns (repeated benches, service tenants re-running
// a configuration, shards of one campaign in one process) cannot change
// results; it only removes redundant capture runs and allocations.
//
// Snapshots stored in a pack are immutable once captured: forks copy out
// of them, never into them, and incremental capture only fills seqs that
// are missing from the pack. Evicting a map entry therefore never
// invalidates a running campaign — its schedule keeps referencing the
// evicted snapshots, which stay alive and read-only until the campaign
// drops them.
const (
	// maxPacks bounds the number of cached configurations (LRU beyond it).
	maxPacks = 4
	// maxPackSnaps bounds the per-pack snapshot map; past it, snapshots
	// not chosen by the schedule being built are dropped for GC.
	maxPackSnaps = 256
)

// packKey identifies one golden configuration. Everything the cached
// artifacts depend on is in the key: the instrumented program is a
// function of (app, params, protect), the cut profile and captures
// additionally of (ranks, sampleEvery) — and ranks is part of params.
type packKey struct {
	app     string
	params  apps.Params
	sample  uint64
	protect string
}

type snapshotPack struct {
	inst  *ir.Program
	sites []transform.SiteInfo

	// mu guards cuts and snaps, and serializes captures so campaigns
	// sharing the pack never capture the same seq twice. Experiment
	// workers never take it — they read captured snapshots, which are
	// immutable.
	mu    sync.Mutex
	cuts  []core.SiteCut
	snaps map[uint64]*core.CampaignSnapshot
}

var (
	packMu  sync.Mutex
	packs   = map[packKey]*snapshotPack{}
	packLRU []packKey // least recently used first
)

// packFor returns the process-wide pack for the campaign's configuration,
// building and instrumenting the program on first use. Build and
// instrument failures are returned wrapped, and are not cached.
func packFor(cfg CampaignConfig) (*snapshotPack, error) {
	key := packKey{
		app:     cfg.App.Name(),
		params:  cfg.Params,
		sample:  cfg.SampleEvery,
		protect: protectKey(cfg.Protect),
	}
	packMu.Lock()
	defer packMu.Unlock()
	if p, ok := packs[key]; ok {
		touchPack(key)
		return p, nil
	}
	prog, err := cfg.App.Build(cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("harness: build %s: %w", cfg.App.Name(), err)
	}
	inst, infos, err := transform.InstrumentSites(prog, cfg.transformOptions())
	if err != nil {
		return nil, fmt.Errorf("harness: instrument %s: %w", cfg.App.Name(), err)
	}
	p := &snapshotPack{
		inst:  inst,
		sites: infos,
		snaps: make(map[uint64]*core.CampaignSnapshot),
	}
	packs[key] = p
	packLRU = append(packLRU, key)
	for len(packs) > maxPacks {
		delete(packs, packLRU[0])
		packLRU = packLRU[1:]
	}
	return p, nil
}

// touchPack moves key to the most-recently-used end. Caller holds packMu.
func touchPack(key packKey) {
	for i, k := range packLRU {
		if k == key {
			packLRU = append(append(packLRU[:i:i], packLRU[i+1:]...), key)
			return
		}
	}
}

// resetPacks drops every cached pack (tests only).
func resetPacks() {
	packMu.Lock()
	defer packMu.Unlock()
	packs = make(map[packKey]*snapshotPack)
	packLRU = nil
}

// golden runs the campaign's one fault-free golden execution on ru (the
// engine's worker-0 Reuse). It always records the quiesce cuts — the pack
// keeps the first set it sees, so later campaigns schedule against the
// same cuts — and, with observe, the per-rank site classes and statics
// behind stratification and per-site analytics.
func (p *snapshotPack) golden(cfg CampaignConfig, ru *core.Reuse, observe bool) (core.RunOutcome, [][]byte, [][]int32, error) {
	rcfg := core.RunConfig{Ranks: cfg.Params.Ranks, SampleEvery: cfg.SampleEvery, Reuse: ru}
	var (
		out     core.RunOutcome
		classes [][]byte
		statics [][]int32
		cuts    []core.SiteCut
	)
	if observe {
		out, classes, statics, cuts = core.RunGoldenSiteClasses(p.inst, rcfg)
	} else {
		out, cuts = core.RunGoldenProfile(p.inst, rcfg)
	}
	if out.Err != nil {
		return out, nil, nil, fmt.Errorf("harness: golden run of %s failed: %w", cfg.App.Name(), out.Err)
	}
	if observe {
		for r, n := range out.SiteCounts() {
			if uint64(len(classes[r])) != n {
				return out, nil, nil, fmt.Errorf("harness: golden run of %s: rank %d observed %d of %d sites",
					cfg.App.Name(), r, len(classes[r]), n)
			}
		}
	}
	p.mu.Lock()
	if p.cuts == nil {
		p.cuts = cuts
	}
	p.mu.Unlock()
	return out, classes, statics, nil
}

// trim bounds the snapshot map, preferring to keep the seqs the current
// schedule chose. Caller holds p.mu.
func (p *snapshotPack) trim(keep []uint64) {
	if len(p.snaps) <= maxPackSnaps {
		return
	}
	kept := make(map[uint64]bool, len(keep))
	for _, s := range keep {
		kept[s] = true
	}
	for s := range p.snaps {
		if len(p.snaps) <= maxPackSnaps {
			break
		}
		if !kept[s] {
			delete(p.snaps, s)
		}
	}
}
