package index

import (
	"testing"

	"visibility/internal/geometry"
)

// decodeSpaces builds two index spaces from fuzz bytes: a compact,
// deterministic decoder so the fuzzer explores rect-list structure.
func decodeSpaces(data []byte, dim int) (Space, Space) {
	take := func() int64 {
		if len(data) == 0 {
			return 0
		}
		v := int64(data[0] % 16)
		data = data[1:]
		return v
	}
	build := func() Space {
		n := int(take() % 4)
		rs := make([]geometry.Rect, 0, n)
		for i := 0; i < n; i++ {
			r := geometry.Rect{Dim: dim}
			for a := 0; a < dim; a++ {
				lo := take()
				r.Lo.C[a] = lo
				r.Hi.C[a] = lo + take()%5
			}
			rs = append(rs, r)
		}
		return FromRects(dim, rs...)
	}
	return build(), build()
}

// FuzzSetAlgebra checks the core algebraic laws on fuzzer-generated
// spaces, in 1-D and 2-D.
func FuzzSetAlgebra(f *testing.F) {
	f.Add([]byte{2, 0, 3, 5, 2, 1, 4, 4, 6, 2})
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 1, 1, 2, 2, 9, 9, 1, 0, 0, 15, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		for dim := 1; dim <= 2; dim++ {
			x, y := decodeSpaces(data, dim)

			inter := x.Intersect(y)
			diff := x.Subtract(y)
			uni := x.Union(y)

			// Partition law: X = (X\Y) ⊎ (X∩Y).
			if diff.Overlaps(inter) {
				t.Fatalf("dim %d: X\\Y overlaps X∩Y: %v %v", dim, x, y)
			}
			if !diff.Union(inter).Equal(x) {
				t.Fatalf("dim %d: (X\\Y)∪(X∩Y) != X: %v %v", dim, x, y)
			}
			// Volume arithmetic.
			if diff.Volume()+inter.Volume() != x.Volume() {
				t.Fatalf("dim %d: volume mismatch: %v %v", dim, x, y)
			}
			if uni.Volume() != x.Volume()+y.Volume()-inter.Volume() {
				t.Fatalf("dim %d: inclusion-exclusion failed: %v %v", dim, x, y)
			}
			// Symmetry and consistency.
			if !inter.Equal(y.Intersect(x)) {
				t.Fatalf("dim %d: intersect not symmetric", dim)
			}
			if x.Overlaps(y) != !inter.IsEmpty() {
				t.Fatalf("dim %d: Overlaps inconsistent with Intersect", dim)
			}
			if x.Covers(y) != y.Subtract(x).IsEmpty() {
				t.Fatalf("dim %d: Covers inconsistent with Subtract", dim)
			}
			// Canonical-form uniqueness: rebuilding from fragments gives
			// identical structure and key.
			rebuilt := diff.Union(inter)
			if rebuilt.Key() != x.Key() {
				t.Fatalf("dim %d: canonical keys differ after rebuild", dim)
			}
			// Union is idempotent and absorbs.
			if !uni.Union(x).Equal(uni) {
				t.Fatalf("dim %d: union not absorbing", dim)
			}
		}
	})
}

// FuzzContainsAgainstRects cross-checks point membership against the raw
// rectangle decomposition.
func FuzzContainsAgainstRects(f *testing.F) {
	f.Add([]byte{2, 1, 3, 6, 2}, int64(4), int64(0))
	f.Fuzz(func(t *testing.T, data []byte, px, py int64) {
		if px < 0 || px > 32 || py < 0 || py > 32 {
			return
		}
		x, _ := decodeSpaces(data, 2)
		p := geometry.Pt2(px, py)
		want := false
		for _, r := range x.Rects() {
			if r.Contains(p) {
				want = true
			}
		}
		if got := x.Contains(p); got != want {
			t.Fatalf("Contains(%v) = %v, rects say %v (%v)", p, got, want, x)
		}
	})
}

// FuzzIndexAlgebra differentially checks the merge sweeps against the
// nested-loop oracle (oracle_test.go) in 1-D, 2-D and 3-D: every operation
// must return a byte-identical canonical rectangle list.
func FuzzIndexAlgebra(f *testing.F) {
	f.Add([]byte{2, 0, 3, 5, 2, 1, 4, 4, 6, 2})
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 1, 1, 2, 2, 9, 9, 1, 0, 0, 15, 15})
	f.Add([]byte{3, 0, 4, 0, 4, 0, 4, 2, 1, 2, 1, 2, 1, 5, 3, 5, 3, 5, 3, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		for dim := 1; dim <= 3; dim++ {
			x, y := decodeSpaces(data, dim)
			checkOracle(t, x, y)
		}
	})
}

// checkOracle fails t unless every set operation on x and y, in both
// orders, matches the oracle exactly.
func checkOracle(t *testing.T, x, y Space) {
	t.Helper()
	for _, p := range [][2]Space{{x, y}, {y, x}} {
		a, b := p[0], p[1]
		for _, c := range []struct {
			name      string
			got, want Space
		}{
			{"Intersect", a.Intersect(b), refIntersect(a, b)},
			{"Subtract", a.Subtract(b), refSubtract(a, b)},
			{"Union", a.Union(b), refUnion(a, b)},
		} {
			if c.got.dim != c.want.dim || !identical(c.got.Rects(), c.want.Rects()) {
				t.Fatalf("%v.%s(%v) = %v, oracle %v", a, c.name, b, c.got.Rects(), c.want.Rects())
			}
		}
		if got, want := a.Overlaps(b), refOverlaps(a, b); got != want {
			t.Fatalf("%v.Overlaps(%v) = %v, oracle %v", a, b, got, want)
		}
		if got, want := a.Covers(b), refCovers(a, b); got != want {
			t.Fatalf("%v.Covers(%v) = %v, oracle %v", a, b, got, want)
		}
		if got, want := a.Key(), refKey(a); got != want {
			t.Fatalf("Key() = %q, oracle %q", got, want)
		}
	}
}

// identical reports whether two rectangle lists are the same values in the
// same order, unused coordinates included.
func identical(x, y []geometry.Rect) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}
