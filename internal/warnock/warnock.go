// Package warnock implements Warnock's algorithm for content-based
// coherence (paper §6): the state is a set of equivalence sets — pairs of a
// point set and a history — maintaining the invariant that every operation
// in an equivalence set's history is relevant to every point of the set.
// Launching a task on a region refines any partially-overlapping
// equivalence sets into inside/outside halves (Figure 9), so equivalence
// sets only ever get smaller.
//
// The history of refinements forms a search tree that acts as a bounding
// volume hierarchy (§6.1): lookups descend from the root through refined
// nodes to the current leaves, and per-region results are memoized so
// repeated uses of the same region restart the search at the memoized
// nodes rather than the root.
package warnock

import (
	"visibility/internal/core"
	"visibility/internal/field"
	"visibility/internal/index"
	"visibility/internal/region"
)

// Warnock is the equivalence-set coherence analyzer of §6: the shared
// equivalence-set engine over a refinement tree that memoizes lookups.
type Warnock struct {
	tree *region.Tree
	opts core.Options
	eng  *core.EqEngine[*bnode]
	// state holds the per-field refinement trees and memo tables, mutated
	// by every Analyze with no lock: the analyzer runs on exactly one
	// goroutine (the submit side, §3.2).
	//
	// confined to analyzer
	state map[field.ID]*fieldState
	// confined to analyzer
	stats core.Stats

	// nextToken issues unique ids for refinement-tree nodes across fields.
	//
	// confined to analyzer
	nextToken int64

	// DisableMemo turns off the per-region memoization of constituent
	// equivalence sets (§6.1), so every lookup descends from the root —
	// an ablation knob for benchmarking the optimization.
	DisableMemo bool
}

// New creates a Warnock analyzer for tree.
func New(tree *region.Tree, opts core.Options) *Warnock {
	w := &Warnock{tree: tree, opts: opts.Normalize(), state: make(map[field.ID]*fieldState)}
	w.eng = core.NewEqEngine[*bnode](w.Name(), w.opts, &w.stats, w)
	return w
}

// Name implements core.Analyzer.
func (w *Warnock) Name() string { return "warnock" }

// Stats implements core.Analyzer.
//
// confined to analyzer
func (w *Warnock) Stats() *core.Stats { return &w.stats }

// Analyze implements core.Analyzer.
//
// confined to analyzer
func (w *Warnock) Analyze(t *core.Task) *core.Result { return w.eng.Analyze(t) }

// EquivalenceSets returns the number of live (leaf) equivalence sets for
// field f, for tests and the experiment harness.
//
// confined to analyzer
func (w *Warnock) EquivalenceSets(f field.ID) int { return len(w.SetSpaces(f)) }

// SetSpaces returns the point sets of the live equivalence sets for field
// f, for invariant checks in tests.
//
// confined to analyzer
func (w *Warnock) SetSpaces(f field.ID) []index.Space {
	fs, ok := w.state[f]
	if !ok {
		return []index.Space{w.tree.Root.Space}
	}
	var out []index.Space
	var walk func(*bnode)
	walk = func(b *bnode) {
		if b.set != nil {
			out = append(out, b.set.Pts)
			return
		}
		for _, c := range b.children {
			walk(c)
		}
	}
	walk(fs.root)
	return out
}

type eqset = core.EqSet[*bnode]

// bnode is a node of the refinement BVH. Leaves hold live equivalence sets;
// interior nodes record past refinements and are immutable once refined,
// which is what makes them safe to replicate across the machine (§6.1).
// Replication is on demand and per node: the first traversal through a
// freshly-refined interior node by each analyzing node must fetch it from
// its owner before it is cached locally — the construction/distribution
// cost that dominates Warnock's initialization at scale (§8.1). Fetches are
// reported through Probe.Fetch keyed by the node's id.
type bnode struct {
	pts      index.Space
	set      *eqset // non-nil exactly at leaves; set.Loc is the leaf
	children []*bnode
	owner    int
	id       int64
}

// fieldState is one field's refinement tree, the core.EqIndex of Warnock.
type fieldState struct {
	w    *Warnock
	root *bnode
	memo map[int][]*eqset // region ID → sets covering it at last lookup
}

// Index implements core.EqFields.
//
// confined to analyzer
func (w *Warnock) Index(_ *core.Task, req core.Req) core.EqIndex[*bnode] {
	fs, ok := w.state[req.Field]
	if !ok {
		root := w.tree.Root.Space
		fs = &fieldState{w: w, memo: make(map[int][]*eqset)}
		fs.root = w.leaf(&eqset{Pts: root, Hist: []core.Entry{core.SeedEntry(root)}})
		w.state[req.Field] = fs
	}
	return fs
}

// leaf creates the refinement-tree leaf holding s.
func (w *Warnock) leaf(s *eqset) *bnode {
	w.nextToken++
	s.Loc = &bnode{pts: s.Pts, set: s, owner: w.opts.Owner(s.Pts), id: w.nextToken}
	return s.Loc
}

// Lookup implements core.EqIndex: it returns the leaf sets overlapping r's
// points, descending from the sets memoized for r (or the root on first
// use).
//
// confined to analyzer
func (fs *fieldState) Lookup(r *region.Region) []*eqset {
	w := fs.w
	span := w.opts.Spans.Begin("warnock.bvh_query", "analysis")
	defer span.End()
	var leaves []*eqset
	var descend func(*bnode)
	descend = func(b *bnode) {
		w.stats.BVHVisited++
		// Testing a node costs work proportional to its rectangle
		// complexity: the residual spaces produced by piece-by-piece
		// refinement fragment into more and more rectangles, which is
		// what makes constructing and searching the refinement tree
		// superlinear during initialization (§8.1).
		ops := int64(b.pts.NumRects())
		if b.set == nil {
			// Interior nodes are replicated on demand per analyzing
			// node; the probe decides whether this is a first fetch.
			w.opts.Probe.Fetch(b.owner, b.id, ops)
		} else {
			w.opts.Probe.Visit(ops)
		}
		w.stats.OverlapTests++
		if !b.pts.Overlaps(r.Space) {
			return
		}
		if b.set != nil {
			leaves = append(leaves, b.set)
			return
		}
		for _, c := range b.children {
			descend(c)
		}
	}
	if start, ok := fs.memo[r.ID]; ok && !w.DisableMemo {
		// A memoized set's leaf may have been refined since: the descent
		// continues from it to the current leaves.
		for _, s := range start {
			descend(s.Loc)
		}
	} else {
		descend(fs.root)
	}
	fs.memo[r.ID] = leaves
	return leaves
}

// Examine implements core.EqIndex: every leaf is distributed state, so
// looking at it is a touch of its owner.
//
// confined to analyzer
func (fs *fieldState) Examine(s *eqset) {
	fs.w.stats.SetsVisited++
	fs.w.opts.Probe.Touch(fs.w.opts.Owner(s.Pts), 1)
}

// Split implements core.EqIndex: the leaf of s becomes an interior node
// over new leaves for in and out.
//
// confined to analyzer
func (fs *fieldState) Split(s, in, out *eqset, forced bool) {
	w := fs.w
	b := s.Loc
	b.set = nil
	b.children = []*bnode{w.leaf(in), w.leaf(out)}
	// Refinement replaces this node's metadata: caches of the old version
	// are invalid, so it gets a fresh replication token and every
	// analyzing node must fetch it again (§6.1's immutability begins only
	// after the refinement).
	w.nextToken++
	b.id = w.nextToken
	// Only a refinement the launch needed pays for the split itself; a
	// fault-plane split is not charged.
	if !forced {
		w.opts.Probe.Touch(w.opts.Owner(s.Pts), 2)
	}
}

// Refined implements core.EqIndex: the memo, which holds the
// pre-refinement leaves, moves to the new leaves overlapping r.
//
// confined to analyzer
func (fs *fieldState) Refined(r *region.Region, inside []*eqset) {
	fs.memo[r.ID] = inside
}

// Write implements core.EqIndex: a write clears the prior history of every
// set it covers (Figure 9 lines 30-31).
//
// confined to analyzer
func (fs *fieldState) Write(e core.Entry, inside []*eqset) {
	for _, s := range inside {
		e.Pts = s.Pts
		s.Hist = append(s.Hist[:0:0], e)
		fs.w.opts.Probe.Touch(fs.w.opts.Owner(s.Pts), 1)
	}
}
