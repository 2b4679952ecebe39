package core

import (
	"visibility/internal/fault"
	"visibility/internal/index"
	"visibility/internal/obs/recorder"
	"visibility/internal/region"
)

// EqSet is an equivalence set (§6): a point set and the history of the
// operations relevant to every point of it. Loc is where the index storing
// the set keeps it; the engine never reads it.
type EqSet[L any] struct {
	Pts  index.Space
	Hist []Entry
	// Dead marks a set its index no longer stores: split by a refinement,
	// pruned by a dominating write, or copied into a new index. A commit
	// holding a dead set from materialize must refine again.
	Dead bool
	Loc  L
}

// EqIndex stores the live equivalence sets of one field: the part of the
// equivalence-set algorithm in which Warnock's refinement tree (§6.1) and
// ray casting's partition buckets (§7.1) differ.
type EqIndex[L any] interface {
	// Lookup returns the live sets overlapping r's points.
	Lookup(r *region.Region) []*EqSet[L]
	// Examine charges refine's look at candidate s, one of Lookup's sets.
	Examine(s *EqSet[L])
	// Split stores fragments in and out in place of s. forced marks a
	// fault-plane split of a set r already covered.
	Split(s, in, out *EqSet[L], forced bool)
	// Refined reports that inside, in order, are now exactly the live
	// sets overlapping r's points.
	Refined(r *region.Region, inside []*EqSet[L])
	// Write commits write e, whose points cover exactly the sets inside.
	Write(e Entry, inside []*EqSet[L])
}

// EqFields finds the equivalence-set index of a requirement's field.
type EqFields[L any] interface {
	// Index returns the index of req's field, prepared for materializing
	// req, a requirement of t.
	Index(t *Task, req Req) EqIndex[L]
}

// EqEngine is the equivalence-set algorithm of Figure 9, shared by
// Warnock's algorithm and ray casting: refine the sets each requirement
// overlaps until they lie inside it, scan the history of every set inside,
// then record the launch's updates in those sets. Reads and reductions
// append to each set's history; writes follow the index's own rule.
type EqEngine[L any] struct {
	Analysis
	fields     EqFields[L]
	refineSpan string

	// reqs holds, per requirement of the launch under analysis, its
	// field's index and the sets inside it found at materialize.
	//
	// confined to analyzer
	reqs []eqReq[L]
}

type eqReq[L any] struct {
	ix     EqIndex[L]
	inside []*EqSet[L]
}

// NewEqEngine returns the engine of the analyzer called name, which
// counts its work into stats and finds its indexes through fields.
func NewEqEngine[L any](name string, opts Options, stats *Stats, fields EqFields[L]) *EqEngine[L] {
	return &EqEngine[L]{
		Analysis:   NewAnalysis(name, opts, stats),
		fields:     fields,
		refineSpan: name + ".refine",
	}
}

// Analyze analyzes the launch of t.
//
// confined to analyzer
func (en *EqEngine[L]) Analyze(t *Task) *Result {
	if cap(en.reqs) < len(t.Reqs) {
		en.reqs = make([]eqReq[L], len(t.Reqs))
	}
	en.reqs = en.reqs[:len(t.Reqs)]
	res := en.Run(t, en)
	clear(en.reqs)
	return res
}

// Materialize implements Phases.
//
// confined to analyzer
func (en *EqEngine[L]) Materialize(t *Task, ri int) {
	req := t.Reqs[ri]
	ix := en.fields.Index(t, req)
	inside := en.refine(ix, req.Region)
	en.reqs[ri] = eqReq[L]{ix: ix, inside: inside}
	for _, s := range inside {
		// Consecutive entries with one privilege form an epoch (e.g. N
		// same-operator reductions): interference is decided once per
		// epoch, as in Legion's user lists, so the charged work is the
		// number of privilege runs, not entries.
		en.opts.Probe.Touch(en.opts.Owner(s.Pts), privRuns(s.Hist))
		for _, e := range s.Hist {
			en.stats.EntriesScanned++
			// Every entry is relevant to the whole set: no spatial test
			// is needed, only privilege interference.
			en.See(ri, e, s.Pts)
		}
	}
}

// Commit implements Phases.
//
// confined to analyzer
func (en *EqEngine[L]) Commit(t *Task, ri int) {
	req := t.Reqs[ri]
	r := en.reqs[ri]
	inside := r.inside
	// Another requirement of this task may have split, pruned or
	// re-bucketed the sets found at materialize: refine again.
	for _, s := range inside {
		if s.Dead {
			inside = en.refine(r.ix, req.Region)
			break
		}
	}
	e := Entry{Task: t.ID, Req: ri, Priv: req.Priv, Pts: req.Region.Space}
	if req.Priv.IsWrite() {
		r.ix.Write(e, inside)
		return
	}
	for _, s := range inside {
		e.Pts = s.Pts
		s.Hist = append(s.Hist, e)
		en.opts.Probe.Touch(en.opts.Owner(s.Pts), 1)
	}
}

// refine splits every set that r's points only partly cover into inside
// and outside fragments (Figure 9, refine) and returns the sets inside r.
func (en *EqEngine[L]) refine(ix EqIndex[L], r *region.Region) []*EqSet[L] {
	span := en.opts.Spans.Begin(en.refineSpan, "analysis")
	defer span.End()
	sp := r.Space
	var inside []*EqSet[L]
	for _, s := range ix.Lookup(r) {
		ix.Examine(s)
		en.stats.OverlapTests++
		if !sp.Covers(s.Pts) {
			// Lookup guarantees overlap, and non-containment guarantees a
			// remainder, so both fragments are non-empty.
			in, _ := en.split(ix, s, s.Pts.Intersect(sp), s.Pts.Subtract(sp), false)
			inside = append(inside, in)
			continue
		}
		// Fault plane: force a refinement the analysis did not need. Both
		// fragments carry the full history, so the split is
		// semantics-preserving — it only breaks code that secretly
		// depends on covered sets staying whole.
		if vol := s.Pts.Volume(); vol > 1 {
			if fired, v := en.opts.Faults.FireValue(fault.EqSplit, vol); fired {
				a, b := s.Pts.SplitAt(1 + int64(v%uint64(vol-1)))
				in, out := en.split(ix, s, a, b, true)
				inside = append(inside, in, out)
				continue
			}
		}
		inside = append(inside, s)
	}
	ix.Refined(r, inside)
	return inside
}

// split replaces s by fragments over a and b, each carrying s's history.
func (en *EqEngine[L]) split(ix EqIndex[L], s *EqSet[L], a, b index.Space, forced bool) (in, out *EqSet[L]) {
	in = &EqSet[L]{Pts: a, Hist: append([]Entry(nil), s.Hist...)}
	out = &EqSet[L]{Pts: b, Hist: s.Hist}
	s.Dead = true
	ix.Split(s, in, out, forced)
	en.stats.SetsCreated += 2
	en.opts.Recorder.Log(recorder.KindEqSplit, 2, int64(len(s.Hist)))
	return in, out
}

// privRuns counts maximal runs of identical privileges in a history — the
// epochs a scan actually tests for interference.
func privRuns(hist []Entry) int64 {
	var runs int64
	for i, e := range hist {
		if i == 0 || !e.Priv.Same(hist[i-1].Priv) {
			runs++
		}
	}
	return runs
}
