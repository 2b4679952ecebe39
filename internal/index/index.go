// Package index implements sparse index spaces: sets of n-dimensional
// integer points stored as canonical lists of disjoint rectangles.
//
// Index spaces are the substrate for content-based coherence (paper §1,
// §3.2): a region names a set of points, regions may alias arbitrarily, and
// the analyses must decide emptiness of intersections, compute differences,
// and overlay updates (the ⊕ operator of §5). All of those are provided
// here as immutable-value operations.
//
// Canonical form: rectangles are decomposed into bands along the highest
// axis (splitting at every distinct boundary), each band's lower-dimensional
// cross-section is canonicalized recursively, and adjacent bands with
// identical cross-sections are re-merged. Two spaces contain the same points
// if and only if their canonical rectangle lists are identical, so Equal is
// a cheap structural comparison.
//
// Cost: Intersect, Subtract and Union are one merge sweep over the two
// canonical lists. In 1-D that is a linear interval merge, O(n+m) for n
// and m rectangles, run once to count the result and once to fill it, so
// the result is allocated once at its exact size. In n-D the sweep walks
// the band boundaries of both lists and recurses into each elementary
// band's cross-sections, joining adjacent bands with equal cross-sections
// as it emits them, so the output is canonical without a sort. Overlaps
// and Covers run the same sweep without building anything: they allocate
// nothing and stop at the first witness. Contains binary-searches the
// bands, and Bounds of a 1-D space reads its first and last rectangle.
// The sort-based canonicalization (canon) serves only construction from
// arbitrary rectangles or points (FromRects, FromPoints).
package index

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"visibility/internal/geometry"
)

// Space is an immutable sparse set of points. The zero value is the empty
// 0-dimensional space; use Empty for a typed empty space.
type Space struct {
	dim   int
	rects []geometry.Rect // canonical: disjoint, sorted, band-decomposed
}

// Empty returns the empty space of the given dimension.
func Empty(dim int) Space { return Space{dim: dim} }

// FromRect returns the space containing exactly the points of r.
func FromRect(r geometry.Rect) Space {
	if r.Empty() {
		return Space{dim: r.Dim}
	}
	return Space{dim: r.Dim, rects: []geometry.Rect{r}}
}

// FromRects returns the space containing the union of the given rectangles,
// which may overlap. All rectangles must share the given dimension.
func FromRects(dim int, rs ...geometry.Rect) Space {
	in := make([]geometry.Rect, 0, len(rs))
	for _, r := range rs {
		if r.Dim != dim {
			panic(fmt.Sprintf("index: rect dim %d != space dim %d", r.Dim, dim))
		}
		if !r.Empty() {
			in = append(in, r)
		}
	}
	return Space{dim: dim, rects: canon(in, dim)}
}

// FromPoints returns the space containing exactly the given points.
func FromPoints(dim int, ps ...geometry.Point) Space {
	rs := make([]geometry.Rect, len(ps))
	for i, p := range ps {
		rs[i] = geometry.PointRect(p, dim)
	}
	return FromRects(dim, rs...)
}

// Dim returns the dimensionality of the space.
func (s Space) Dim() int { return s.dim }

// IsEmpty reports whether the space contains no points.
func (s Space) IsEmpty() bool { return len(s.rects) == 0 }

// NumRects returns the number of rectangles in the canonical decomposition.
func (s Space) NumRects() int { return len(s.rects) }

// Rects returns the canonical rectangle decomposition. The returned slice
// must not be modified.
func (s Space) Rects() []geometry.Rect { return s.rects }

// Volume returns the number of points in the space.
func (s Space) Volume() int64 {
	var v int64
	for _, r := range s.rects {
		v += r.Volume()
	}
	return v
}

// Bounds returns the bounding rectangle of the space (empty if the space is
// empty).
func (s Space) Bounds() geometry.Rect {
	if len(s.rects) == 0 {
		return geometry.Rect{Dim: s.dim, Lo: geometry.Pt1(1), Hi: geometry.Pt1(0)}
	}
	b := s.rects[0]
	if s.dim == 1 {
		// Sorted disjoint intervals: the extremes are the ends.
		b.Hi = s.rects[len(s.rects)-1].Hi
		return b
	}
	for _, r := range s.rects[1:] {
		b = b.Union(r)
	}
	return b
}

// Contains reports whether p is in the space. It binary-searches for the
// one band along the highest axis that can hold p and scans only that
// band.
func (s Space) Contains(p geometry.Point) bool {
	if len(s.rects) == 0 {
		return false
	}
	ax := s.dim - 1
	lo, hi := 0, len(s.rects)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.rects[mid].Hi.C[ax] < p.C[ax] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < len(s.rects) && s.rects[i].Lo.C[ax] <= p.C[ax]; i++ {
		if s.rects[i].Contains(p) {
			return true
		}
	}
	return false
}

// Overlaps reports whether s and o share at least one point. This is the
// hot-path emptiness test of content-based dependence analysis (§3.2); it
// allocates nothing and returns at the first shared point.
func (s Space) Overlaps(o Space) bool {
	if len(s.rects) == 0 || len(o.rects) == 0 {
		return false
	}
	return overlaps(s.dim-1, s.rects, o.rects)
}

// Intersect returns the set of points in both s and o (the X/Y operator of
// §5 applied to domains).
func (s Space) Intersect(o Space) Space {
	if len(s.rects) == 0 || len(o.rects) == 0 {
		return Space{dim: s.dim}
	}
	return s.combine(o, opIntersect)
}

// Subtract returns the set of points in s but not in o (the X\Y operator of
// §5 applied to domains).
func (s Space) Subtract(o Space) Space {
	if len(s.rects) == 0 || len(o.rects) == 0 {
		return s
	}
	return s.combine(o, opSubtract)
}

// Union returns the set of points in s or o.
func (s Space) Union(o Space) Space {
	if s.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return s
	}
	return s.combine(o, opUnion)
}

// combine runs the sweep for op over two non-empty spaces. A 1-D result is
// counted first and then allocated once at its exact size.
func (s Space) combine(o Space, op setOp) Space {
	if s.dim != 1 {
		return Space{dim: s.dim, rects: sweep(s.dim-1, s.rects, o.rects, op, geometry.Rect{Dim: s.dim}, nil)}
	}
	n := 0
	sweep1(s.rects, o.rects, op, func(int64, int64) { n++ })
	if n == 0 {
		return Space{dim: 1}
	}
	out := make([]geometry.Rect, 0, n)
	sweep1(s.rects, o.rects, op, func(lo, hi int64) { out = append(out, geometry.R1(lo, hi)) })
	return Space{dim: 1, rects: out}
}

// Covers reports whether every point of o is in s. It allocates nothing
// and returns at the first point of o outside s.
func (s Space) Covers(o Space) bool {
	if o.IsEmpty() {
		return true
	}
	if s.IsEmpty() {
		return false
	}
	return covers(s.dim-1, s.rects, o.rects)
}

// Equal reports whether s and o contain exactly the same points.
func (s Space) Equal(o Space) bool {
	if s.dim != o.dim || len(s.rects) != len(o.rects) {
		return false
	}
	for i := range s.rects {
		if !s.rects[i].Equal(o.rects[i]) {
			return false
		}
	}
	return true
}

// Each calls f for every point of the space; iteration stops early if f
// returns false. Within the canonical form, rectangles are visited in band
// order and each rectangle in row-major order.
func (s Space) Each(f func(geometry.Point) bool) {
	for _, r := range s.rects {
		if !r.Each(f) {
			return
		}
	}
}

// SplitAt partitions s into its first n points (in Each order) and the
// remainder. n is clamped to [0, Volume()], so one side may be empty at
// the extremes. The fault plane uses it to force equivalence-set splits
// at deterministic positions. The head is built from whole rectangles
// plus the row-major prefix of at most one partial rectangle, so the cost
// grows with rectangles, not points.
func (s Space) SplitAt(n int64) (Space, Space) {
	if n <= 0 {
		return Empty(s.dim), s
	}
	var head []geometry.Rect
	for _, r := range s.rects {
		v := r.Volume()
		if n < v {
			head = rowMajorPrefix(r, n, head)
			break
		}
		head = append(head, r)
		if n -= v; n == 0 {
			break
		}
	}
	h := FromRects(s.dim, head...)
	return h, s.Subtract(h)
}

// rowMajorPrefix appends to dst rectangles covering the first k points of
// r in row-major order (lowest axis fastest), for 0 < k < r.Volume(): a
// slab of whole layers along the highest axis, then the prefix of the next
// layer one dimension down.
func rowMajorPrefix(r geometry.Rect, k int64, dst []geometry.Rect) []geometry.Rect {
	for a := r.Dim - 1; a >= 0 && k > 0; a-- {
		layer := int64(1) // points per step along axis a
		for b := 0; b < a; b++ {
			layer *= r.Hi.C[b] - r.Lo.C[b] + 1
		}
		if full := k / layer; full > 0 {
			slab := r
			slab.Hi.C[a] = r.Lo.C[a] + full - 1
			dst = append(dst, slab)
			k -= full * layer
			r.Lo.C[a] += full
		}
		r.Hi.C[a] = r.Lo.C[a]
	}
	return dst
}

// Key returns a compact string uniquely identifying the point set; equal
// spaces (by Equal) have equal keys. Useful as a map key for memoization.
// The format is "d<dim>" followed by ";lo,hi," per axis for each canonical
// rectangle; it is built in one exactly sized buffer.
func (s Space) Key() string {
	n := 1 + decLen(int64(s.dim))
	for _, r := range s.rects {
		n++
		for a := 0; a < s.dim; a++ {
			n += decLen(r.Lo.C[a]) + decLen(r.Hi.C[a]) + 2
		}
	}
	var b strings.Builder
	b.Grow(n)
	var num [20]byte
	b.WriteByte('d')
	b.Write(strconv.AppendInt(num[:0], int64(s.dim), 10))
	for _, r := range s.rects {
		b.WriteByte(';')
		for a := 0; a < s.dim; a++ {
			b.Write(strconv.AppendInt(num[:0], r.Lo.C[a], 10))
			b.WriteByte(',')
			b.Write(strconv.AppendInt(num[:0], r.Hi.C[a], 10))
			b.WriteByte(',')
		}
	}
	return b.String()
}

// decLen returns the length of v in decimal, sign included.
func decLen(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// String formats the space for debugging.
func (s Space) String() string {
	if s.IsEmpty() {
		return fmt.Sprintf("{empty d%d}", s.dim)
	}
	parts := make([]string, len(s.rects))
	for i, r := range s.rects {
		parts[i] = r.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// setOp selects what a sweep computes on an elementary band.
type setOp uint8

const (
	opIntersect setOp = iota
	opSubtract
	opUnion
)

// bandEnd returns the index one past the band of rs that starts at i: the
// run of rectangles sharing rs[i]'s extent on axis ax. Bands of a
// canonical list are disjoint on that axis, so equal Lo suffices.
func bandEnd(rs []geometry.Rect, i, ax int) int {
	lo := rs[i].Lo.C[ax]
	for i++; i < len(rs) && rs[i].Lo.C[ax] == lo; i++ {
	}
	return i
}

// sweep appends op(a, b) to out, where a and b are canonical on axes
// 0..ax and every emitted rectangle takes its axes above ax from tmpl.
// The emitted run is canonical on axes 0..ax.
//
// Above axis 0 it walks the band boundaries of both lists. Each
// elementary interval [lo, hi] on which neither list changes band yields
// one block: the recursive sweep of both cross-sections, or a copy of the
// one cross-section the operation keeps. A block equal to the previous one
// and contiguous with it is folded into it by widening the previous
// block's extent on axis ax, so the result needs no canonicalization.
func sweep(ax int, a, b []geometry.Rect, op setOp, tmpl geometry.Rect, out []geometry.Rect) []geometry.Rect {
	if ax == 0 {
		sweep1(a, b, op, func(lo, hi int64) {
			r := tmpl
			r.Lo.C[0], r.Hi.C[0] = lo, hi
			out = append(out, r)
		})
		return out
	}
	prev := -1 // start in out of the last block emitted at this level
	i, j := 0, 0
	y := int64(math.MinInt64) // first coordinate not yet swept
	for {
		hasA, hasB := i < len(a), j < len(b)
		if op == opIntersect && !(hasA && hasB) || op == opSubtract && !hasA || !hasA && !hasB {
			return out
		}
		// Elementary interval [lo, hi]: it starts at the earlier current
		// band (clipped to y) and ends where either band ends or the other
		// begins.
		lo, hi := int64(math.MaxInt64), int64(math.MaxInt64)
		if hasA {
			lo = max(y, a[i].Lo.C[ax])
		}
		if hasB {
			lo = min(lo, max(y, b[j].Lo.C[ax]))
		}
		inA := hasA && a[i].Lo.C[ax] <= lo
		inB := hasB && b[j].Lo.C[ax] <= lo
		var ie, je int
		if inA {
			ie, hi = bandEnd(a, i, ax), a[i].Hi.C[ax]
		} else if hasA {
			hi = a[i].Lo.C[ax] - 1
		}
		if inB {
			je, hi = bandEnd(b, j, ax), min(hi, b[j].Hi.C[ax])
		} else if hasB {
			hi = min(hi, b[j].Lo.C[ax]-1)
		}

		t := tmpl
		t.Lo.C[ax], t.Hi.C[ax] = lo, hi
		start := len(out)
		switch {
		case inA && inB:
			out = sweep(ax-1, a[i:ie], b[j:je], op, t, out)
		case inA && op != opIntersect:
			out = place(out, a[i:ie], t, ax)
		case inB && op == opUnion:
			out = place(out, b[j:je], t, ax)
		}
		if len(out) > start {
			if prev >= 0 && out[prev].Hi.C[ax]+1 == lo && sameBelow(out[prev:start], out[start:], ax) {
				for k := prev; k < start; k++ {
					out[k].Hi.C[ax] = hi
				}
				out = out[:start]
			} else {
				prev = start
			}
		}

		y = hi + 1
		if inA && a[i].Hi.C[ax] == hi {
			i = ie
		}
		if inB && b[j].Hi.C[ax] == hi {
			j = je
		}
	}
}

// sweep1 is the 1-D base case of sweep: a linear merge of two sorted
// lists of disjoint, non-adjacent intervals on axis 0 that passes each
// interval of the result to emit, in order. Intersect and Subtract output
// is canonical as found: two adjacent result points lie in the same
// interval of each input, so they come out in one interval. Union joins
// touching intervals before emitting them.
func sweep1(a, b []geometry.Rect, op setOp, emit func(lo, hi int64)) {
	switch op {
	case opIntersect:
		for i, j := 0, 0; i < len(a) && j < len(b); {
			if lo, hi := max(a[i].Lo.C[0], b[j].Lo.C[0]), min(a[i].Hi.C[0], b[j].Hi.C[0]); lo <= hi {
				emit(lo, hi)
			}
			if a[i].Hi.C[0] < b[j].Hi.C[0] {
				i++
			} else {
				j++
			}
		}
	case opSubtract:
		j := 0
		for _, r := range a {
			lo, hi := r.Lo.C[0], r.Hi.C[0]
			for j < len(b) && b[j].Hi.C[0] < lo {
				j++
			}
			for k := j; k < len(b) && b[k].Lo.C[0] <= hi && lo <= hi; k++ {
				if b[k].Lo.C[0] > lo {
					emit(lo, b[k].Lo.C[0]-1)
				}
				lo = b[k].Hi.C[0] + 1
			}
			if lo <= hi {
				emit(lo, hi)
			}
		}
	case opUnion:
		var lo, hi int64
		open := false
		for i, j := 0, 0; i < len(a) || j < len(b); {
			var r geometry.Rect
			if j == len(b) || i < len(a) && a[i].Lo.C[0] <= b[j].Lo.C[0] {
				r, i = a[i], i+1
			} else {
				r, j = b[j], j+1
			}
			if open && r.Lo.C[0] <= hi+1 {
				hi = max(hi, r.Hi.C[0])
				continue
			}
			if open {
				emit(lo, hi)
			}
			lo, hi, open = r.Lo.C[0], r.Hi.C[0], true
		}
		if open {
			emit(lo, hi)
		}
	}
}

// place appends the rectangles of rs to out with their axes ax and above
// taken from tmpl.
func place(out, rs []geometry.Rect, tmpl geometry.Rect, ax int) []geometry.Rect {
	for _, r := range rs {
		for k := ax; k < tmpl.Dim; k++ {
			r.Lo.C[k], r.Hi.C[k] = tmpl.Lo.C[k], tmpl.Hi.C[k]
		}
		out = append(out, r)
	}
	return out
}

// sameBelow reports whether x and y are the same rectangle list on the
// axes below ax.
func sameBelow(x, y []geometry.Rect, ax int) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		for k := 0; k < ax; k++ {
			if x[i].Lo.C[k] != y[i].Lo.C[k] || x[i].Hi.C[k] != y[i].Hi.C[k] {
				return false
			}
		}
	}
	return true
}

// overlaps reports whether canonical lists a and b (on axes 0..ax) share
// a point, sweeping their bands without building anything.
func overlaps(ax int, a, b []geometry.Rect) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		alo, ahi := a[i].Lo.C[ax], a[i].Hi.C[ax]
		blo, bhi := b[j].Lo.C[ax], b[j].Hi.C[ax]
		if ahi >= blo && bhi >= alo {
			if ax == 0 {
				return true
			}
			ie, je := bandEnd(a, i, ax), bandEnd(b, j, ax)
			if overlaps(ax-1, a[i:ie], b[j:je]) {
				return true
			}
		}
		// Advance past whichever band ends first (both on a tie).
		if ahi <= bhi {
			i = bandEnd(a, i, ax)
		}
		if bhi <= ahi {
			j = bandEnd(b, j, ax)
		}
	}
	return false
}

// covers reports whether canonical list s contains every point of
// canonical list o (both on axes 0..ax), without building anything.
func covers(ax int, s, o []geometry.Rect) bool {
	i := 0
	for j := 0; j < len(o); {
		olo, ohi := o[j].Lo.C[ax], o[j].Hi.C[ax]
		je := bandEnd(o, j, ax)
		// Every coordinate of o's band on axis ax must lie in bands of s
		// whose cross-sections cover o's.
		for y := olo; ; {
			for i < len(s) && s[i].Hi.C[ax] < y {
				i = bandEnd(s, i, ax)
			}
			if i == len(s) || s[i].Lo.C[ax] > y {
				return false
			}
			ie := bandEnd(s, i, ax)
			if ax > 0 && !covers(ax-1, s[i:ie], o[j:je]) {
				return false
			}
			if s[i].Hi.C[ax] >= ohi {
				break
			}
			y = s[i].Hi.C[ax] + 1
		}
		j = je
	}
	return true
}

// canon converts an arbitrary (possibly overlapping) rectangle list into the
// canonical band decomposition described in the package comment. Only
// construction (FromRects, FromPoints) needs it; the set operations keep
// their output canonical as they sweep.
func canon(rs []geometry.Rect, dim int) []geometry.Rect {
	if len(rs) == 0 {
		return nil
	}
	if dim == 1 {
		return canon1(rs)
	}
	axis := dim - 1

	// Collect distinct band boundaries along the highest axis.
	bounds := make([]int64, 0, 2*len(rs))
	for _, r := range rs {
		bounds = append(bounds, r.Lo.C[axis], r.Hi.C[axis]+1)
	}
	slices.Sort(bounds)
	bounds = dedup64(bounds)

	type band struct {
		lo, hi int64           // inclusive range on axis
		cross  []geometry.Rect // canonical (dim-1) cross-section
	}
	var bands []band
	for bi := 0; bi+1 < len(bounds); bi++ {
		lo, hi := bounds[bi], bounds[bi+1]-1
		var cross []geometry.Rect
		for _, r := range rs {
			if r.Lo.C[axis] <= lo && hi <= r.Hi.C[axis] {
				// Project r to dim-1 by dropping the highest axis.
				p := r
				p.Dim = dim - 1
				p.Lo.C[axis] = 0
				p.Hi.C[axis] = 0
				cross = append(cross, p)
			}
		}
		if len(cross) == 0 {
			continue
		}
		cross = canon(cross, dim-1)
		// Merge with previous band when contiguous and identical.
		if n := len(bands); n > 0 && bands[n-1].hi+1 == lo && sameRects(bands[n-1].cross, cross) {
			bands[n-1].hi = hi
			continue
		}
		bands = append(bands, band{lo: lo, hi: hi, cross: cross})
	}

	var out []geometry.Rect
	for _, b := range bands {
		for _, c := range b.cross {
			r := c
			r.Dim = dim
			r.Lo.C[axis] = b.lo
			r.Hi.C[axis] = b.hi
			out = append(out, r)
		}
	}
	return out
}

// canon1 merges 1-D intervals into a sorted list of disjoint,
// non-adjacent intervals.
func canon1(rs []geometry.Rect) []geometry.Rect {
	sorted := make([]geometry.Rect, len(rs))
	copy(sorted, rs)
	slices.SortFunc(sorted, func(x, y geometry.Rect) int { return cmp.Compare(x.Lo.C[0], y.Lo.C[0]) })
	var out []geometry.Rect
	for _, r := range sorted {
		if n := len(out); n > 0 && r.Lo.C[0] <= out[n-1].Hi.C[0]+1 {
			if r.Hi.C[0] > out[n-1].Hi.C[0] {
				out[n-1].Hi.C[0] = r.Hi.C[0]
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

func sameRects(a, b []geometry.Rect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func dedup64(xs []int64) []int64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
