package core

import (
	"visibility/internal/index"
	"visibility/internal/privilege"
)

// Phases is an analyzer's own half of analyzing one launch (Figure 6).
// Analysis.Run drives it; the methods are exported only so that analyzers
// outside this package can implement the interface.
type Phases interface {
	// Materialize scans the history visible to requirement ri of t and
	// reports every entry relevant to it through Analysis.See.
	Materialize(t *Task, ri int)
	// Commit records the update of requirement ri of t. It runs once
	// every requirement of t has materialized.
	Commit(t *Task, ri int)
}

// Analysis is the half of Analyze that all analyzers share: the launch
// skeleton of Figure 6 and the per-entry step of the history scan. An
// analyzer keeps one Analysis for its lifetime.
type Analysis struct {
	name  string
	span  string
	opts  Options
	stats *Stats

	// The launch under analysis: its task, the requirements with points,
	// and the result being built.
	//
	// confined to analyzer
	t *Task
	// confined to analyzer
	live []int
	// confined to analyzer
	deps []int
	// confined to analyzer
	plans [][]Visible
}

// NewAnalysis returns the shared analysis state of the analyzer called
// name, which counts its work into stats.
func NewAnalysis(name string, opts Options, stats *Stats) Analysis {
	return Analysis{name: name, span: name + ".analyze", opts: opts, stats: stats}
}

// Run analyzes the launch of t: the materialize phase of every
// requirement, then the commit phase of every requirement (Figure 6,
// lines 4 and 7).
//
// confined to analyzer
func (a *Analysis) Run(t *Task, ph Phases) *Result {
	span := a.opts.Spans.Begin(a.span, "analysis")
	defer span.End()
	a.stats.Launches++
	a.t, a.deps, a.plans = t, nil, make([][]Visible, len(t.Reqs))
	a.live = a.live[:0]
	for ri, req := range t.Reqs {
		// A requirement with no points conflicts with nothing and has
		// nothing to materialize or record. Common under sharding, where
		// a requirement's restriction to most atoms is empty, and for
		// clipped boundary halos.
		if !req.Region.Space.IsEmpty() {
			a.live = append(a.live, ri)
		}
	}
	for _, ri := range a.live {
		ph.Materialize(t, ri)
	}
	for _, ri := range a.live {
		ph.Commit(t, ri)
	}
	res := &Result{Deps: DedupDeps(a.deps), Plans: a.plans}
	a.t, a.deps, a.plans = nil, nil, nil
	return res
}

// See is the per-entry step of every history scan: entry e is relevant to
// the points pts of requirement ri of the launch under analysis. The
// entry's task is a dependence when its privilege interferes with the
// requirement's (§3.2). The entry joins the requirement's materialization
// plan when it updated pts, unless the requirement is a reduction, whose
// input is never materialized (§5).
//
// confined to analyzer
func (a *Analysis) See(ri int, e Entry, pts index.Space) {
	req := &a.t.Reqs[ri]
	if privilege.Interferes(e.Priv, req.Priv) {
		a.deps = append(a.deps, e.Task)
		a.stats.DepsReported++
		if a.opts.Prov != nil && e.Task != InitialTask {
			a.opts.Prov.AddReason(EdgeReason{
				Src: e.Task, Dst: a.t.ID, Kind: ReasonRegion, Analyzer: a.name,
				SrcReq: e.Req, DstReq: ri, Field: req.Field,
				SrcPriv: e.Priv, DstPriv: req.Priv, Overlap: pts.Bounds(), Trace: -1,
			})
		}
	}
	if !req.Priv.IsReduce() && e.Priv.Mutates() {
		a.plans[ri] = append(a.plans[ri], Visible{Task: e.Task, Req: e.Req, Priv: e.Priv, Pts: pts})
	}
}

// Plan returns the materialization plan built so far for requirement ri
// of the launch under analysis.
//
// confined to analyzer
func (a *Analysis) Plan(ri int) []Visible { return a.plans[ri] }
