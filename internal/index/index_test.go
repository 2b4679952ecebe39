package index

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"visibility/internal/geometry"
)

func TestEmpty(t *testing.T) {
	e := Empty(2)
	if !e.IsEmpty() || e.Volume() != 0 || e.Dim() != 2 {
		t.Errorf("Empty(2) = %v", e)
	}
	if e.Contains(geometry.Pt2(0, 0)) {
		t.Error("empty space contains nothing")
	}
	if !e.Bounds().Empty() {
		t.Error("empty space has empty bounds")
	}
}

func TestFromRectsMergesOverlaps(t *testing.T) {
	s := FromRects(1, geometry.R1(0, 5), geometry.R1(3, 9), geometry.R1(10, 12))
	// [0,5] ∪ [3,9] ∪ [10,12] = [0,12]: adjacent intervals merge too.
	if s.NumRects() != 1 || s.Volume() != 13 {
		t.Errorf("got %v, want single rect [0..12]", s)
	}
}

func TestCanonical2D(t *testing.T) {
	// Two ways to build the same L-shape must produce identical structure.
	a := FromRects(2, geometry.R2(0, 0, 9, 4), geometry.R2(0, 5, 4, 9))
	b := FromRects(2, geometry.R2(0, 0, 4, 9), geometry.R2(5, 0, 9, 4))
	if !a.Equal(b) {
		t.Errorf("canonical forms differ:\n a=%v\n b=%v", a, b)
	}
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	if a.Volume() != 75 {
		t.Errorf("volume = %d, want 75", a.Volume())
	}
}

func TestBandMerging(t *testing.T) {
	// Two stacked rects with the same x-extent should merge into one band.
	s := FromRects(2, geometry.R2(0, 0, 4, 2), geometry.R2(0, 3, 4, 7))
	if s.NumRects() != 1 {
		t.Errorf("expected 1 rect after band merge, got %v", s)
	}
}

func TestIntersect(t *testing.T) {
	a := FromRect(geometry.R2(0, 0, 5, 5))
	b := FromRects(2, geometry.R2(4, 4, 8, 8), geometry.R2(0, 0, 1, 1))
	got := a.Intersect(b)
	want := FromRects(2, geometry.R2(4, 4, 5, 5), geometry.R2(0, 0, 1, 1))
	if !got.Equal(want) {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
}

func TestSubtract(t *testing.T) {
	a := FromRect(geometry.R2(0, 0, 9, 9))
	b := FromRect(geometry.R2(3, 3, 6, 6))
	got := a.Subtract(b)
	if got.Volume() != 100-16 {
		t.Errorf("Subtract volume = %d, want 84", got.Volume())
	}
	if got.Overlaps(b) {
		t.Error("difference overlaps subtrahend")
	}
	if !got.Union(b.Intersect(a)).Equal(a) {
		t.Error("X\\Y ∪ (X∩Y) != X")
	}
}

func TestCoversAndOverlaps(t *testing.T) {
	a := FromRect(geometry.R1(0, 99))
	b := FromRects(1, geometry.R1(5, 10), geometry.R1(50, 60))
	if !a.Covers(b) {
		t.Error("a should cover b")
	}
	if b.Covers(a) {
		t.Error("b should not cover a")
	}
	if !a.Covers(a) || !a.Covers(Empty(1)) {
		t.Error("covers should be reflexive and hold for empty")
	}
	if Empty(1).Covers(b) {
		t.Error("empty covers nothing non-empty")
	}
	if !a.Overlaps(b) || b.Overlaps(Empty(1)) {
		t.Error("overlap misbehavior")
	}
}

func TestEach(t *testing.T) {
	s := FromRects(1, geometry.R1(0, 2), geometry.R1(10, 11))
	var got []int64
	s.Each(func(p geometry.Point) bool {
		got = append(got, p.C[0])
		return true
	})
	want := []int64{0, 1, 2, 10, 11}
	if len(got) != len(want) {
		t.Fatalf("Each visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Each visited %v, want %v", got, want)
		}
	}
}

func TestFromPoints(t *testing.T) {
	s := FromPoints(1, geometry.Pt1(3), geometry.Pt1(1), geometry.Pt1(2), geometry.Pt1(7))
	if s.Volume() != 4 || s.NumRects() != 2 {
		t.Errorf("FromPoints = %v, want [1..3] and [7..7]", s)
	}
}

// brute is a reference point-set implementation for property tests.
type brute map[geometry.Point]bool

func bruteOf(s Space) brute {
	m := brute{}
	s.Each(func(p geometry.Point) bool { m[p] = true; return true })
	return m
}

func randSpace(rng *rand.Rand, dim int) Space {
	n := rng.Intn(4)
	rs := make([]geometry.Rect, 0, n)
	for i := 0; i < n; i++ {
		r := geometry.Rect{Dim: dim}
		for a := 0; a < dim; a++ {
			lo := int64(rng.Intn(12))
			r.Lo.C[a] = lo
			r.Hi.C[a] = lo + int64(rng.Intn(6))
		}
		rs = append(rs, r)
	}
	return FromRects(dim, rs...)
}

func TestSetAlgebraProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for dim := 1; dim <= 3; dim++ {
		dim := dim
		f := func() bool {
			x := randSpace(rng, dim)
			y := randSpace(rng, dim)
			bx, by := bruteOf(x), bruteOf(y)

			inter := bruteOf(x.Intersect(y))
			diff := bruteOf(x.Subtract(y))
			uni := bruteOf(x.Union(y))

			for p := range bx {
				if by[p] != inter[p] {
					return false
				}
				if !by[p] != diff[p] {
					return false
				}
				if !uni[p] {
					return false
				}
			}
			for p := range by {
				if !uni[p] {
					return false
				}
			}
			// No extraneous points.
			for p := range inter {
				if !bx[p] || !by[p] {
					return false
				}
			}
			for p := range diff {
				if !bx[p] || by[p] {
					return false
				}
			}
			for p := range uni {
				if !bx[p] && !by[p] {
					return false
				}
			}
			// Structural laws.
			if !x.Subtract(y).Union(x.Intersect(y)).Equal(x) {
				return false
			}
			if x.Overlaps(y) != !x.Intersect(y).IsEmpty() {
				return false
			}
			if x.Covers(y) != y.Subtract(x).IsEmpty() {
				return false
			}
			// Volume consistency.
			if x.Volume() != int64(len(bx)) {
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("dim %d: %v", dim, err)
		}
	}
}

// Property: canonical form is unique — building the same set from its own
// fragments reproduces identical structure.
func TestCanonicalUniqueness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for dim := 1; dim <= 3; dim++ {
		dim := dim
		f := func() bool {
			x := randSpace(rng, dim)
			y := randSpace(rng, dim)
			// x = (x\y) ∪ (x∩y), rebuilt from pieces.
			rebuilt := x.Subtract(y).Union(x.Intersect(y))
			return rebuilt.Equal(x) && rebuilt.Key() == x.Key()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("dim %d: %v", dim, err)
		}
	}
}

func TestKeyDistinguishes(t *testing.T) {
	a := FromRect(geometry.R1(0, 5))
	b := FromRect(geometry.R1(0, 6))
	if a.Key() == b.Key() {
		t.Error("different spaces share a key")
	}
}

func TestDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dim mismatch")
		}
	}()
	FromRects(2, geometry.R1(0, 1))
}

func BenchmarkIntersect2D(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]Space, 64)
	for i := range xs {
		xs[i] = randSpace(rng, 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = xs[i%64].Intersect(xs[(i+1)%64])
	}
}

func BenchmarkSubtract2D(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]Space, 64)
	for i := range xs {
		xs[i] = randSpace(rng, 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = xs[i%64].Subtract(xs[(i+1)%64])
	}
}

func Test3DSpaces(t *testing.T) {
	a := FromRect(geometry.R3(0, 0, 0, 3, 3, 3))
	b := FromRect(geometry.R3(2, 2, 2, 5, 5, 5))
	inter := a.Intersect(b)
	if inter.Volume() != 8 {
		t.Errorf("3-D intersect volume = %d", inter.Volume())
	}
	diff := a.Subtract(b)
	if diff.Volume() != 64-8 {
		t.Errorf("3-D subtract volume = %d", diff.Volume())
	}
	if !diff.Union(inter).Equal(a) {
		t.Error("3-D partition law failed")
	}
	if a.Bounds().Dim != 3 {
		t.Error("3-D bounds dim wrong")
	}
}

func TestKeyFormat(t *testing.T) {
	for _, c := range []struct {
		s    Space
		want string
	}{
		{Space{}, "d0"},
		{Empty(2), "d2"},
		{FromRect(geometry.R1(0, 5)), "d1;0,5,"},
		{FromRects(1, geometry.R1(-3, -1), geometry.R1(10, 12)), "d1;-3,-1,;10,12,"},
		{FromRect(geometry.R1(math.MinInt64, math.MaxInt64)), "d1;-9223372036854775808,9223372036854775807,"},
		{FromRects(2, geometry.R2(0, 0, 9, 4), geometry.R2(0, 5, 4, 9)), "d2;0,9,0,4,;0,4,5,9,"},
		{FromRects(3, geometry.R3(1, 2, 3, 4, 5, 6), geometry.R3(0, 0, 7, 0, 0, 7)), "d3;1,4,2,5,3,6,;0,0,0,0,7,7,"},
	} {
		if got := c.s.Key(); got != c.want {
			t.Errorf("Key() = %q, want %q", got, c.want)
		}
	}
}

// circuitSpaces returns the shape the circuit app hands the analyzers: one
// piece's 4096-point node block and a ghost set of 40 scattered points,
// 16 in each of two neighbouring blocks (this one included) and 8 across
// 32 pieces.
func circuitSpaces() (block, ghost Space) {
	const piece = 4096
	rng := rand.New(rand.NewSource(11))
	var ps []geometry.Point
	for _, base := range []int64{0, piece} {
		for k := 0; k < 16; k++ {
			ps = append(ps, geometry.Pt1(base+rng.Int63n(piece)))
		}
	}
	for k := 0; k < 8; k++ {
		ps = append(ps, geometry.Pt1(rng.Int63n(32*piece)))
	}
	return FromRect(geometry.R1(piece, 2*piece-1)), FromPoints(1, ps...)
}

func BenchmarkSubtract1D(b *testing.B) {
	block, ghost := circuitSpaces()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = block.Subtract(ghost)
	}
}

func BenchmarkIntersect1D(b *testing.B) {
	block, ghost := circuitSpaces()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = block.Intersect(ghost)
	}
}

// BenchmarkCovers1D asks whether the block with its ghost points cut out
// covers itself: a full walk of both lists, answered true.
func BenchmarkCovers1D(b *testing.B) {
	block, ghost := circuitSpaces()
	holed := block.Subtract(ghost)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !holed.Covers(holed) {
			b.Fatal("a space does not cover itself")
		}
	}
}

// BenchmarkOverlaps1D asks whether the block with its ghost points cut
// out overlaps the ghost set: a full walk of both lists, answered false.
func BenchmarkOverlaps1D(b *testing.B) {
	block, ghost := circuitSpaces()
	holed := block.Subtract(ghost)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if holed.Overlaps(ghost) {
			b.Fatal("the holed block overlaps the ghost set")
		}
	}
}

func BenchmarkUnion1D(b *testing.B) {
	block, ghost := circuitSpaces()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = block.Union(ghost)
	}
}
