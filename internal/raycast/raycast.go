// Package raycast implements the ray-casting coherence algorithm (paper
// §7), the algorithm in production use by Legion. It keeps Warnock-style
// equivalence sets, but a task writing a region R creates a single fresh
// equivalence set for R and prunes every set R occludes (dominating_write,
// Figure 11), so equivalence sets coalesce as well as refine and the
// steady-state population stays small.
//
// Because coalescing destroys the monotone refinement tree Warnock's
// algorithm uses as its BVH, ray casting instead derives its acceleration
// structure from a disjoint-complete partition of the root region chosen by
// a heuristic from the partitions tasks actually use: equivalence sets are
// stored in per-piece buckets, with a static BVH over the piece bounding
// boxes to find the buckets a region overlaps. If the application migrates
// to a different disjoint-complete partition, the sets are re-bucketed; if
// no such partition exists, a K-d decomposition of the root bounds is used
// instead (§7.1).
package raycast

import (
	"sort"

	"visibility/internal/bvh"
	"visibility/internal/core"
	"visibility/internal/fault"
	"visibility/internal/field"
	"visibility/internal/index"
	"visibility/internal/obs/recorder"
	"visibility/internal/region"
)

// migrateAfter is how many consecutive launches must use a different
// disjoint-complete partition before the equivalence sets are re-bucketed.
const migrateAfter = 8

// RayCast is the ray-casting coherence analyzer of §7: the shared
// equivalence-set engine over partition buckets, with dominating writes.
type RayCast struct {
	tree *region.Tree
	opts core.Options
	eng  *core.EqEngine[loc]
	// state holds the per-field interval lists and acceleration indexes,
	// mutated by every Analyze with no lock: the analyzer runs on exactly
	// one goroutine (the submit side, §3.2).
	//
	// confined to analyzer
	state map[field.ID]*fieldState
	// confined to analyzer
	stats core.Stats
}

// New creates a ray-casting analyzer for tree.
func New(tree *region.Tree, opts core.Options) *RayCast {
	rc := &RayCast{tree: tree, opts: opts.Normalize(), state: make(map[field.ID]*fieldState)}
	rc.eng = core.NewEqEngine[loc](rc.Name(), rc.opts, &rc.stats, rc)
	return rc
}

// Name implements core.Analyzer.
func (rc *RayCast) Name() string { return "raycast" }

// Stats implements core.Analyzer.
//
// confined to analyzer
func (rc *RayCast) Stats() *core.Stats { return &rc.stats }

// Analyze implements core.Analyzer.
//
// confined to analyzer
func (rc *RayCast) Analyze(t *core.Task) *core.Result { return rc.eng.Analyze(t) }

type eqset = core.EqSet[loc]

// loc places a set in the acceleration structure.
type loc struct {
	id     int
	bucket int // owning DCP piece index; -1 in K-d mode
}

// fieldState is one field's acceleration structure and the sets stored in
// it, the core.EqIndex of ray casting.
type fieldState struct {
	rc     *RayCast
	nextID int

	// Disjoint-complete-partition mode.
	dcp     *region.Partition
	pieces  *bvh.Tree // over piece bounding boxes
	buckets [][]*eqset

	// K-d fallback mode (dcp == nil).
	kd     *bvh.KD
	kdSets map[int]*eqset

	// Migration heuristic state.
	misses    int
	candidate *region.Partition
}

// EquivalenceSets returns the number of live equivalence sets for field f.
//
// confined to analyzer
func (rc *RayCast) EquivalenceSets(f field.ID) int { return len(rc.SetSpaces(f)) }

// SetSpaces returns the point sets of the live equivalence sets for field
// f, for invariant checks in tests.
//
// confined to analyzer
func (rc *RayCast) SetSpaces(f field.ID) []index.Space {
	fs, ok := rc.state[f]
	if !ok {
		return []index.Space{rc.tree.Root.Space}
	}
	var out []index.Space
	for _, s := range fs.sets() {
		out = append(out, s.Pts)
	}
	return out
}

// CurrentPartition returns the disjoint-complete partition currently
// defining field f's buckets, or nil when the K-d fallback is active.
//
// confined to analyzer
func (rc *RayCast) CurrentPartition(f field.ID) *region.Partition {
	if fs, ok := rc.state[f]; ok {
		return fs.dcp
	}
	return nil
}

// Index implements core.EqFields: it also runs the migration heuristic
// for req's region, and the EqMigrate fault site, before req materializes.
//
// confined to analyzer
func (rc *RayCast) Index(t *core.Task, req core.Req) core.EqIndex[loc] {
	fs, ok := rc.state[req.Field]
	if !ok {
		fs = &fieldState{rc: rc}
		root := rc.tree.Root.Space
		seed := &eqset{Pts: root, Hist: []core.Entry{core.SeedEntry(root)}}
		fs.installAccel(rc.chooseDCP(req.Region), []*eqset{seed})
		rc.state[req.Field] = fs
	}
	fs.maybeMigrate(req.Region)
	if fired, v := rc.opts.Faults.FireValue(fault.EqMigrate, int64(t.ID)); fired {
		fs.forceMigrate(v)
	}
	return fs
}

// rootPartitionOf returns the root-level partition whose subtree contains
// r, or nil for the root itself.
func (rc *RayCast) rootPartitionOf(r *region.Region) *region.Partition {
	cur := r
	for cur.Parent != nil {
		if cur.Parent.Parent.IsRoot() {
			return cur.Parent
		}
		cur = cur.Parent.Parent
	}
	return nil
}

// chooseDCP picks the disjoint-complete partition to bucket by: the one
// containing hint when it qualifies, else the first disjoint-complete
// partition of the root, else nil (K-d fallback).
func (rc *RayCast) chooseDCP(hint *region.Region) *region.Partition {
	if hint != nil {
		if p := rc.rootPartitionOf(hint); p != nil && p.DisjointComplete() {
			return p
		}
	}
	for _, p := range rc.tree.Root.Partitions {
		if p.DisjointComplete() {
			return p
		}
	}
	return nil
}

// sets returns the live sets: in bucket order, or by id in K-d mode.
func (fs *fieldState) sets() []*eqset {
	var all []*eqset
	if fs.dcp == nil {
		for _, id := range sortedIntKeys(fs.kdSets) {
			all = append(all, fs.kdSets[id])
		}
		return all
	}
	for _, b := range fs.buckets {
		all = append(all, b...)
	}
	return all
}

// installAccel (re)builds the acceleration structure for dcp (or the K-d
// fallback when dcp is nil) and distributes sets into it, splitting sets
// at piece boundaries so each lives in exactly one bucket.
func (fs *fieldState) installAccel(dcp *region.Partition, sets []*eqset) {
	rc := fs.rc
	*fs = fieldState{rc: rc, nextID: fs.nextID, dcp: dcp}
	if dcp == nil {
		fs.kd = bvh.NewKD(rc.tree.Root.Space.Bounds(), 64)
		fs.kdSets = make(map[int]*eqset)
		for _, s := range sets {
			fs.insert(s)
		}
		return
	}

	// Index every rectangle of every piece rather than piece bounding
	// boxes: pieces made of scattered blocks (e.g. a node block plus a
	// wire block) would otherwise produce mutually-overlapping boxes and
	// degrade every query to a full scan.
	var inputs []bvh.Input
	for i, sub := range dcp.Subregions {
		for _, r := range sub.Space.Rects() {
			inputs = append(inputs, bvh.Input{Box: r, ID: i})
		}
	}
	fs.pieces = bvh.Build(inputs)
	fs.buckets = make([][]*eqset, len(dcp.Subregions))
	for _, s := range sets {
		// The copies below replace s: a commit still holding s from
		// materialize must find the copies instead.
		s.Dead = true
		for i, sub := range dcp.Subregions {
			rc.stats.OverlapTests++
			if part := s.Pts.Intersect(sub.Space); !part.IsEmpty() {
				fs.insert(&eqset{Pts: part, Hist: append([]core.Entry(nil), s.Hist...), Loc: loc{bucket: i}})
			}
		}
	}
}

// overlappingBuckets returns the indices of dcp pieces whose contents
// overlap sp.
func (fs *fieldState) overlappingBuckets(sp index.Space) []int {
	rc := fs.rc
	span := rc.opts.Spans.Begin("raycast.bvh_query", "analysis")
	defer span.End()
	var out []int
	visited := fs.pieces.QuerySpace(sp, func(i int) {
		rc.stats.OverlapTests++
		if fs.dcp.Subregions[i].Space.Overlaps(sp) {
			out = append(out, i)
		}
	})
	rc.stats.BVHVisited += int64(visited)
	rc.opts.Probe.Visit(int64(visited))
	return out
}

// Lookup implements core.EqIndex: it returns the live sets overlapping r's
// points.
//
// confined to analyzer
func (fs *fieldState) Lookup(r *region.Region) []*eqset {
	rc := fs.rc
	sp := r.Space
	var out []*eqset
	if fs.dcp != nil {
		for _, bi := range fs.overlappingBuckets(sp) {
			for _, s := range fs.buckets[bi] {
				rc.stats.SetsVisited++
				rc.stats.OverlapTests++
				if s.Pts.Overlaps(sp) {
					out = append(out, s)
				}
			}
			rc.opts.Probe.Touch(rc.opts.Owner(fs.dcp.Subregions[bi].Space), int64(len(fs.buckets[bi])))
		}
		return out
	}
	visited := fs.kd.QuerySpace(sp, func(id int) {
		s := fs.kdSets[id]
		rc.stats.SetsVisited++
		rc.stats.OverlapTests++
		if s.Pts.Overlaps(sp) {
			out = append(out, s)
		}
		rc.opts.Probe.Touch(rc.opts.Owner(s.Pts), 1)
	})
	rc.stats.BVHVisited += int64(visited)
	rc.opts.Probe.Visit(int64(visited))
	return out
}

// Examine implements core.EqIndex: Lookup already charged each bucket.
func (fs *fieldState) Examine(*eqset) {}

// Refined implements core.EqIndex: buckets keep no per-region state.
func (fs *fieldState) Refined(*region.Region, []*eqset) {}

// remove deletes s from the acceleration structure.
func (fs *fieldState) remove(s *eqset) {
	if fs.dcp != nil {
		b := fs.buckets[s.Loc.bucket]
		for i, x := range b {
			if x == s {
				b[i] = b[len(b)-1]
				fs.buckets[s.Loc.bucket] = b[:len(b)-1]
				return
			}
		}
		return
	}
	fs.kd.Remove(s.Loc.id)
	delete(fs.kdSets, s.Loc.id)
}

// insert stores s under a fresh id: in its bucket, already set in s.Loc,
// in DCP mode (refined fragments stay in their parent's piece), else in
// the K-d container.
func (fs *fieldState) insert(s *eqset) {
	s.Loc.id = fs.nextID
	fs.nextID++
	if fs.dcp != nil {
		fs.buckets[s.Loc.bucket] = append(fs.buckets[s.Loc.bucket], s)
	} else {
		s.Loc.bucket = -1
		fs.kdSets[s.Loc.id] = s
		fs.kd.Insert(s.Loc.id, s.Pts.Bounds())
	}
	fs.rc.opts.Probe.Touch(fs.rc.opts.Owner(s.Pts), 1)
}

// Split implements core.EqIndex: the fragments stay in s's bucket.
//
// confined to analyzer
func (fs *fieldState) Split(s, in, out *eqset, _ bool) {
	in.Loc.bucket, out.Loc.bucket = s.Loc.bucket, s.Loc.bucket
	fs.remove(s)
	fs.insert(in)
	fs.insert(out)
}

// maybeMigrate tracks which disjoint-complete partition recent launches
// use and re-buckets when the application has durably switched (§7.1).
func (fs *fieldState) maybeMigrate(r *region.Region) {
	if fs.dcp == nil {
		return
	}
	p := fs.rc.rootPartitionOf(r)
	if p == nil || !p.DisjointComplete() {
		return
	}
	if p == fs.dcp {
		fs.misses = 0
		fs.candidate = nil
		return
	}
	if fs.candidate != p {
		fs.candidate = p
		fs.misses = 0
	}
	fs.misses++
	if fs.misses >= migrateAfter {
		fs.installAccel(p, fs.sets())
	}
}

// forceMigrate is the EqMigrate fault action: rebuild the acceleration
// structure mid-stream without waiting for the migration heuristic — odd
// payloads abandon the current partition for the K-d fallback, even ones
// re-bucket against the same partition — exercising the §7.1 migration
// path under an adversarial schedule.
func (fs *fieldState) forceMigrate(payload uint64) {
	if fs.dcp == nil || payload&1 == 1 {
		fs.installAccel(nil, fs.sets())
		return
	}
	fs.installAccel(fs.dcp, fs.sets())
}

// Write implements core.EqIndex with dominating_write (Figure 11): the
// write's region becomes a fresh equivalence set (split at piece
// boundaries in DCP mode) and every occluded set is pruned. inside holds
// the occluded sets: every set overlapping the write's region is covered
// by it after refinement.
//
// confined to analyzer
func (fs *fieldState) Write(e core.Entry, inside []*eqset) {
	rc := fs.rc
	span := rc.opts.Spans.Begin("raycast.coalesce", "analysis")
	defer span.End()
	rc.opts.Recorder.Log(recorder.KindEqCoalesce, int64(len(inside)), 0)
	buckets := make(map[int]index.Space)
	for _, s := range inside {
		s.Dead = true
		fs.remove(s)
		rc.stats.SetsCoalesced++
		if bi := s.Loc.bucket; bi >= 0 {
			cur, ok := buckets[bi]
			if !ok {
				cur = index.Empty(e.Pts.Dim())
			}
			buckets[bi] = cur.Union(s.Pts)
		}
	}
	if fs.dcp != nil {
		// One coalesced set per piece the write covers: the union of the
		// pruned sets in that bucket (= piece ∩ write region). Bucket order
		// fixes the new sets' ids, which downstream scans report in: iterate
		// sorted so two runs of the same stream emit identical output.
		for _, bi := range sortedIntKeys(buckets) {
			part := buckets[bi]
			se := e
			se.Pts = part
			ns := &eqset{Pts: part, Hist: []core.Entry{se}, Loc: loc{id: fs.nextID, bucket: bi}}
			fs.nextID++
			fs.buckets[bi] = append(fs.buckets[bi], ns)
			rc.stats.SetsCreated++
			// Invalidate-and-replace is one batched update per owner.
			rc.opts.Probe.Touch(rc.opts.Owner(part), 2)
		}
		return
	}
	fs.insert(&eqset{Pts: e.Pts, Hist: []core.Entry{e}})
	rc.stats.SetsCreated++
}

// sortedIntKeys returns m's keys in ascending order, making iteration over
// the map's contents deterministic.
func sortedIntKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	//vislint:ignore detrange collecting keys to sort is order-insensitive
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
