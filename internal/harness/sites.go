package harness

import (
	"fmt"
	"sort"

	"repro/internal/analytics"
	"repro/internal/classify"
	"repro/internal/inject"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transform"
)

// Per-site propagation analytics (Sampling.Sites). Each experiment's fault
// plan is attributed to the static fim_inj site of its first fault via the
// golden dyn→static profile (the site observer on the golden execution,
// shared with stratification), and its outcome, CML trajectory shape, and cleanse
// cause are tallied per site. Everything is a pure integer count over
// seed-pure per-experiment records, so per-site tallies merge exactly like
// StratumTally and the ranked table is byte-identical across worker
// counts, shard layouts, snapshot-fork scheduling, and checkpoint resume.

// siteMap resolves planned faults to static injection sites: per-rank
// dyn→static ordinal arrays from the golden site-observer profile, plus
// one label per static site from the transform's SiteInfo table. Both are
// pure functions of (app, params), so every shard of a campaign derives
// the identical map independently.
type siteMap struct {
	statics [][]int32
	labels  []string
}

func newSiteMap(infos []transform.SiteInfo, statics [][]int32) *siteMap {
	labels := make([]string, len(infos))
	for i, in := range infos {
		labels[i] = fmt.Sprintf("%s#%d/%s",
			in.Func, in.Index, stratumClasses[classBucket(in.Class)].label)
	}
	return &siteMap{statics: statics, labels: labels}
}

// staticOf maps the plan's first fault to its static site ordinal.
func (m *siteMap) staticOf(plan inject.Plan) (int, bool) {
	if len(plan.Faults) == 0 {
		return 0, false
	}
	f := plan.Faults[0]
	if f.Rank < 0 || f.Rank >= len(m.statics) || f.Site >= uint64(len(m.statics[f.Rank])) {
		return 0, false
	}
	return int(m.statics[f.Rank][f.Site]), true
}

// label names a static site for reports and journals.
func (m *siteMap) label(site int) string {
	if site >= 0 && site < len(m.labels) {
		return m.labels[site]
	}
	return "?"
}

// patternFor condenses one experiment into its propagation-pattern record:
// the static site of its first fault, the CML trajectory shape, and the
// cleanse cause. Nil for zero-fault plans (legal in multi-fault mode) —
// there is nothing to attribute. Every input is a seed-pure field of the
// summary or the injected rank's retained CML points, so the record is
// deterministic and journals replay it exactly.
func (m *siteMap) patternFor(plan inject.Plan, sum ExperimentSummary, points []trace.Point) *analytics.Pattern {
	site, ok := m.staticOf(plan)
	if !ok {
		return nil
	}
	final := 0
	if n := len(points); n > 0 {
		final = points[n-1].CML
	}
	return &analytics.Pattern{
		Site:  site,
		Shape: analytics.ClassifyShape(points),
		Cause: analytics.ClassifyCause(sum.Fired, sum.MaxCML > 0, final, sum.Outcome),
	}
}

// SiteTally is the mergeable per-static-site aggregate a PartialResult
// carries when per-site analytics are enabled (Sampling.Sites): outcome
// counts plus propagation-pattern counts. Pure integers, so merging is
// commutative and associative exactly like StratumTally.
type SiteTally struct {
	Site   int                   `json:"site"`
	Label  string                `json:"label"`
	Tally  classify.Tally        `json:"tally"`
	Shapes analytics.ShapeCounts `json:"shapes"`
	Causes analytics.CauseCounts `json:"causes"`
}

// mergeSiteTallies unions two per-site tally sets by static site ordinal.
// Labels must agree — a mismatch means the partials were built against
// different programs and must not combine.
func mergeSiteTallies(a, b []SiteTally) ([]SiteTally, error) {
	if len(b) == 0 {
		return a, nil
	}
	if len(a) == 0 {
		return append([]SiteTally(nil), b...), nil
	}
	bySite := make(map[int]SiteTally, len(a)+len(b))
	for _, st := range a {
		bySite[st.Site] = st
	}
	for _, st := range b {
		cur, ok := bySite[st.Site]
		if !ok {
			bySite[st.Site] = st
			continue
		}
		if cur.Label != st.Label {
			return nil, fmt.Errorf("%w: site %d labeled %q vs %q",
				ErrMergeMismatch, st.Site, cur.Label, st.Label)
		}
		for o := 0; o < classify.NumOutcomes; o++ {
			cur.Tally.Counts[o] += st.Tally.Counts[o]
		}
		cur.Tally.Total += st.Tally.Total
		cur.Shapes.Add(st.Shapes)
		cur.Causes.Add(st.Causes)
		bySite[st.Site] = cur
	}
	out := make([]SiteTally, 0, len(bySite))
	for _, st := range bySite {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out, nil
}

// SiteReport is one row of the final per-site vulnerability ranking,
// ordered most-vulnerable first: descending Wilson lower bound on
// P(WO or Crash | flip at site), ties broken by descending point rate and
// then ascending site ordinal.
type SiteReport struct {
	Site   int                   `json:"site"`
	Label  string                `json:"label"`
	Tally  classify.Tally        `json:"tally"`
	Shapes analytics.ShapeCounts `json:"shapes"`
	Causes analytics.CauseCounts `json:"causes"`
	// Rate is the point estimate of P(WO or Crash | flip at site).
	Rate float64 `json:"rate"`
	// HalfWidth is the 95% Wilson half-width of Rate.
	HalfWidth float64 `json:"halfWidth"`
	// LowerBound is the Wilson lower confidence bound, the ranking key.
	LowerBound float64 `json:"lowerBound"`
}

// buildSiteReports derives the ranked vulnerability table from merged
// per-site tallies. Nil in, nil out — legacy partials without site tallies
// finalize byte-identically to earlier releases.
func buildSiteReports(tallies []SiteTally) []SiteReport {
	if len(tallies) == 0 {
		return nil
	}
	in := make([]analytics.SiteStat, len(tallies))
	byOrd := make(map[int]SiteTally, len(tallies))
	for i, st := range tallies {
		in[i] = analytics.SiteStat{
			Site:  st.Site,
			Label: st.Label,
			Bad:   st.Tally.Counts[classify.WrongOutput] + st.Tally.Counts[classify.Crashed],
			Total: st.Tally.Total,
		}
		byOrd[st.Site] = st
	}
	ranked := analytics.RankSites(in, stats.Z95)
	out := make([]SiteReport, len(ranked))
	for i, r := range ranked {
		st := byOrd[r.Site]
		out[i] = SiteReport{
			Site:       r.Site,
			Label:      r.Label,
			Tally:      st.Tally,
			Shapes:     st.Shapes,
			Causes:     st.Causes,
			Rate:       r.Rate,
			HalfWidth:  r.HalfWidth,
			LowerBound: r.LowerBound,
		}
	}
	return out
}

// ProtectTop selects the static site ordinals to protect: the top pct% of
// totalSites static sites, taken from the ranked report (fewer when fewer
// sites were ever observed). The result is sorted ascending — the shape
// CampaignConfig.Protect requires.
func ProtectTop(sites []SiteReport, pct float64, totalSites int) []int {
	ranked := make([]analytics.RankedSite, len(sites))
	for i, s := range sites {
		ranked[i] = analytics.RankedSite{
			Site: s.Site, Label: s.Label,
			Rate: s.Rate, HalfWidth: s.HalfWidth, LowerBound: s.LowerBound,
		}
	}
	return analytics.TopPercent(ranked, pct, totalSites)
}
