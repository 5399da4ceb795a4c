package harness

import (
	"sort"

	"repro/internal/core"
	"repro/internal/inject"
)

// Snapshot-fork scheduling. With CampaignConfig.Snapshots > 0 a shard
// chooses cuts from the quiesce profile its golden execution recorded into
// the pack, captures full state at the chosen cuts the pack is still
// missing (core.RunGoldenCapture, the only extra fault-free run), and each
// experiment then forks from the best captured snapshot that precedes all
// of its planned faults, skipping the clean prefix. Campaigns after the
// first over a configuration capture only the cuts the pack lacks.
// Snapshot placement is purely a performance strategy: results are
// byte-identical with any placement (including none), which is why
// Snapshots is excluded from the checkpoint fingerprint.

// snapSchedule holds a shard's captured snapshots, ordered by seq. It is
// shared read-only across worker goroutines; forking restores copy out of
// the snapshot, never into it.
type snapSchedule struct {
	snaps []*core.CampaignSnapshot
}

// Best returns the latest captured snapshot every planned fault lies at or
// after, or nil when the experiment must re-execute from step 0.
func (s *snapSchedule) Best(plan inject.Plan) *core.CampaignSnapshot {
	if s == nil {
		return nil
	}
	for i := len(s.snaps) - 1; i >= 0; i-- {
		if s.snaps[i].Usable(plan) {
			return s.snaps[i]
		}
	}
	return nil
}

// bestCutIndex returns the index of the latest cut usable for the plan, or
// -1 when even the earliest cut is past one of the faults. Cuts are in seq
// order and their per-rank site counts are monotone, so usability is a
// prefix property and binary search applies.
func bestCutIndex(cuts []core.SiteCut, plan inject.Plan) int {
	// sort.Search finds the first unusable cut; everything before it is
	// usable.
	n := sort.Search(len(cuts), func(i int) bool { return !cuts[i].Usable(plan) })
	return n - 1
}

// chooseSeqs picks at most budget snapshot seqs as quantiles of the
// per-experiment best-usable-cut distribution, so the captured cuts sit
// where the campaign's fault plans can actually use them. best holds one
// usable-cut index per experiment (unusable experiments excluded); it is
// sorted in place. A budget beyond len(best) picks the same seqs as
// len(best) — every experiment's cut already — so it is clamped there:
// the caller holds the pack lock, and an unclamped budget from a request
// would make this loop (and its allocations) arbitrarily long.
func chooseSeqs(cuts []core.SiteCut, best []int, budget int) []uint64 {
	if len(best) == 0 || budget <= 0 {
		return nil
	}
	budget = min(budget, len(best))
	sort.Ints(best)
	seqs := make([]uint64, 0, budget)
	seen := make(map[uint64]bool, budget)
	for k := 0; k < budget; k++ {
		// Upper-end-inclusive quantiles: k = budget-1 lands on the max, so
		// the experiments with the latest faults — the ones with the most
		// prefix to skip — always get a late cut.
		idx := ((k+1)*len(best) - 1) / budget
		seq := cuts[best[idx]].Seq
		if !seen[seq] {
			seen[seq] = true
			seqs = append(seqs, seq)
		}
	}
	return seqs
}

// schedule chooses cut seqs for the shard's pending experiments from the
// pack's golden cuts and captures snapshots, on ru, at the seqs the pack
// is still missing. It returns nil — campaign falls back to re-execution
// for every experiment — when capture fails or no pending plan can use
// any cut.
func (p *snapshotPack) schedule(cfg CampaignConfig, ru *core.Reuse, sites []uint64, pending []int) *snapSchedule {
	p.mu.Lock()
	defer p.mu.Unlock()
	best := make([]int, 0, len(pending))
	for _, id := range pending {
		if b := bestCutIndex(p.cuts, planFor(cfg, id, sites)); b >= 0 {
			best = append(best, b)
		}
	}
	seqs := chooseSeqs(p.cuts, best, cfg.Snapshots)
	if len(seqs) == 0 {
		return nil
	}
	var missing []uint64
	for _, s := range seqs {
		if p.snaps[s] == nil {
			missing = append(missing, s)
		}
	}
	if len(missing) > 0 {
		rcfg := core.RunConfig{Ranks: cfg.Params.Ranks, SampleEvery: cfg.SampleEvery, Reuse: ru}
		out, snaps := core.RunGoldenCapture(p.inst, rcfg, missing)
		if out.Err != nil {
			return nil
		}
		for _, cs := range snaps {
			p.snaps[cs.Cut.Seq] = cs
		}
		p.trim(seqs)
	}
	sched := &snapSchedule{snaps: make([]*core.CampaignSnapshot, 0, len(seqs))}
	for _, s := range seqs {
		if cs := p.snaps[s]; cs != nil {
			sched.snaps = append(sched.snaps, cs)
		}
	}
	if len(sched.snaps) == 0 {
		return nil
	}
	sort.Slice(sched.snaps, func(i, j int) bool {
		return sched.snaps[i].Cut.Seq < sched.snaps[j].Cut.Seq
	})
	return sched
}
