package index

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"visibility/internal/geometry"
)

// The ref* functions are the original nested-loop set algebra that the
// merge sweeps in index.go replaced: every pair of rectangles is combined
// and the result is re-canonicalized by the sort-based refCanon. They are
// slow (O(n·m) plus a sort) but obviously correct, and serve as the
// differential oracle for the sweeps.

func refOverlaps(s, o Space) bool {
	for _, a := range s.rects {
		for _, b := range o.rects {
			if a.Overlaps(b) {
				return true
			}
		}
	}
	return false
}

func refIntersect(s, o Space) Space {
	var out []geometry.Rect
	for _, a := range s.rects {
		for _, b := range o.rects {
			if inter := a.Intersect(b); !inter.Empty() {
				out = append(out, inter)
			}
		}
	}
	return Space{dim: s.dim, rects: refCanon(out, s.dim)}
}

func refSubtract(s, o Space) Space {
	cur := s.rects
	for _, b := range o.rects {
		var next []geometry.Rect
		for _, a := range cur {
			next = a.Subtract(b, next)
		}
		cur = next
		if len(cur) == 0 {
			break
		}
	}
	return Space{dim: s.dim, rects: refCanon(cur, s.dim)}
}

func refUnion(s, o Space) Space {
	if s.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return s
	}
	all := make([]geometry.Rect, 0, len(s.rects)+len(o.rects))
	all = append(all, s.rects...)
	all = append(all, o.rects...)
	return Space{dim: s.dim, rects: refCanon(all, s.dim)}
}

func refCovers(s, o Space) bool {
	if o.IsEmpty() {
		return true
	}
	if s.IsEmpty() {
		return false
	}
	return refSubtract(o, s).IsEmpty()
}

// refSplitAt is the point-by-point split: it enumerates the first n points
// through Each and rebuilds them with FromPoints.
func refSplitAt(s Space, n int64) (Space, Space) {
	if n <= 0 {
		return Empty(s.dim), s
	}
	var head []geometry.Point
	s.Each(func(p geometry.Point) bool {
		head = append(head, p)
		return int64(len(head)) < n
	})
	h := FromPoints(s.dim, head...)
	return h, refSubtract(s, h)
}

// refCanon is the original canonicalization with reflection-based sorts.
func refCanon(rs []geometry.Rect, dim int) []geometry.Rect {
	if len(rs) == 0 {
		return nil
	}
	if dim == 1 {
		return refCanon1(rs)
	}
	axis := dim - 1

	bounds := make([]int64, 0, 2*len(rs))
	for _, r := range rs {
		bounds = append(bounds, r.Lo.C[axis], r.Hi.C[axis]+1)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	bounds = dedup64(bounds)

	type band struct {
		lo, hi int64
		cross  []geometry.Rect
	}
	var bands []band
	for bi := 0; bi+1 < len(bounds); bi++ {
		lo, hi := bounds[bi], bounds[bi+1]-1
		var cross []geometry.Rect
		for _, r := range rs {
			if r.Lo.C[axis] <= lo && hi <= r.Hi.C[axis] {
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
		cross = refCanon(cross, dim-1)
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

func refCanon1(rs []geometry.Rect) []geometry.Rect {
	sorted := make([]geometry.Rect, len(rs))
	copy(sorted, rs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo.C[0] < sorted[j].Lo.C[0] })
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

// refKey is the original fmt-based Key.
func refKey(s Space) string {
	var b strings.Builder
	fmt.Fprintf(&b, "d%d", s.dim)
	for _, r := range s.rects {
		b.WriteByte(';')
		for a := 0; a < s.dim; a++ {
			fmt.Fprintf(&b, "%d,%d,", r.Lo.C[a], r.Hi.C[a])
		}
	}
	return b.String()
}

// TestExhaustiveSmallSpaces checks every operation on every pair of
// subsets of a 7-point line and of a 3×3 grid against bit-set semantics.
// Each subset's space is built once with FromPoints, so comparing a
// result's rectangles with the space built from the expected bit set
// checks its points and its canonical form in one step.
func TestExhaustiveSmallSpaces(t *testing.T) {
	for _, g := range []struct{ dim, w, h int }{{1, 7, 1}, {2, 3, 3}} {
		n := g.w * g.h
		spaces := make([]Space, 1<<n)
		for m := range spaces {
			var ps []geometry.Point
			for bit := 0; bit < n; bit++ {
				if m&(1<<bit) != 0 {
					ps = append(ps, geometry.Point{C: [geometry.MaxDim]int64{int64(bit % g.w), int64(bit / g.w)}})
				}
			}
			spaces[m] = FromPoints(g.dim, ps...)
			got := 0
			spaces[m].Each(func(p geometry.Point) bool {
				got |= 1 << (p.C[0] + p.C[1]*int64(g.w))
				return true
			})
			if got != m {
				t.Fatalf("dim %d: FromPoints(%b) holds %b", g.dim, m, got)
			}
		}
		same := func(op string, x, y, want int, got Space) {
			if !identical(got.Rects(), spaces[want].Rects()) {
				t.Fatalf("dim %d: %b %s %b = %v, want %v", g.dim, x, op, y, got, spaces[want])
			}
		}
		for x, sx := range spaces {
			for y, sy := range spaces {
				same("∩", x, y, x&y, sx.Intersect(sy))
				same("\\", x, y, x&^y, sx.Subtract(sy))
				same("∪", x, y, x|y, sx.Union(sy))
				if sx.Overlaps(sy) != (x&y != 0) {
					t.Fatalf("dim %d: %b.Overlaps(%b) = %v", g.dim, x, y, sx.Overlaps(sy))
				}
				if sx.Covers(sy) != (y&^x == 0) {
					t.Fatalf("dim %d: %b.Covers(%b) = %v", g.dim, x, y, sx.Covers(sy))
				}
			}
		}
	}
}

// TestSweepMatchesOracle runs the differential check on random spaces
// with more rectangles than the fuzz decoder builds.
func TestSweepMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for dim := 1; dim <= 3; dim++ {
		for iter := 0; iter < 300; iter++ {
			build := func() Space {
				rs := make([]geometry.Rect, rng.Intn(10))
				for i := range rs {
					rs[i].Dim = dim
					for a := 0; a < dim; a++ {
						rs[i].Lo.C[a] = int64(rng.Intn(16))
						rs[i].Hi.C[a] = rs[i].Lo.C[a] + int64(rng.Intn(6))
					}
				}
				return FromRects(dim, rs...)
			}
			checkOracle(t, build(), build())
		}
	}
}

// TestSplitAtMatchesOracle compares the by-rectangle SplitAt with the
// point-by-point split at every position of small 1-D, 2-D and 3-D
// spaces.
func TestSplitAtMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for dim := 1; dim <= 3; dim++ {
		for iter := 0; iter < 40; iter++ {
			s := randSpace(rng, dim)
			for n := int64(-1); n <= s.Volume()+1; n++ {
				h, r := s.SplitAt(n)
				wh, wr := refSplitAt(s, n)
				if !identical(h.Rects(), wh.Rects()) || !identical(r.Rects(), wr.Rects()) {
					t.Fatalf("%v.SplitAt(%d) = %v, %v; oracle %v, %v", s, n, h, r, wh, wr)
				}
			}
		}
	}
}
