package crosscheck

import (
	"fmt"
	"testing"

	"visibility/internal/core"
	"visibility/internal/fault"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/privilege"
	"visibility/internal/raycast"
	"visibility/internal/region"
	"visibility/internal/testutil"
	"visibility/internal/warnock"
)

// migrateAfter mirrors the ray-casting analyzer's migration threshold:
// the number of consecutive launches on another disjoint-complete
// partition after which its sets are re-bucketed.
const migrateAfter = 8

// Targeted scenarios that stress specific algorithm mechanisms beyond the
// random streams: deep nesting, root-region writes, partition migration,
// K-d fallback, and long histories of mixed privileges.

func verifyAll(t *testing.T, s *core.Stream) {
	t.Helper()
	if err := core.Verify(s, fullInit(s.Tree), core.HashKernel{}, allFactories()...); err != nil {
		t.Fatal(err)
	}
}

// TestDeepNesting builds a three-level region tree and runs tasks at every
// level, including interleaved coarse and fine accesses that force the
// painter to hoist child histories into its own node's views.
func TestDeepNesting(t *testing.T) {
	fs := field.NewSpace()
	fs.Add("v")
	tree := region.NewTree("A", index.FromRect(geometry.R1(0, 63)), fs)
	top := tree.Root.Partition("T", []index.Space{
		index.FromRect(geometry.R1(0, 31)),
		index.FromRect(geometry.R1(32, 63)),
	})
	var leaves []*region.Region
	for _, sub := range top.Subregions {
		b := sub.Space.Bounds()
		mid := sub.Partition("M", []index.Space{
			index.FromRect(geometry.R1(b.Lo.C[0], b.Lo.C[0]+15)),
			index.FromRect(geometry.R1(b.Lo.C[0]+16, b.Hi.C[0])),
		})
		for _, m := range mid.Subregions {
			mb := m.Space.Bounds()
			bot := m.Partition("B", []index.Space{
				index.FromRect(geometry.R1(mb.Lo.C[0], mb.Lo.C[0]+7)),
				index.FromRect(geometry.R1(mb.Lo.C[0]+8, mb.Hi.C[0])),
			})
			leaves = append(leaves, bot.Subregions...)
		}
	}

	s := core.NewStream(tree)
	w := func(r *region.Region) {
		s.Launch("w", core.Req{Region: r, Field: 0, Priv: privilege.Writes()})
	}
	rd := func(r *region.Region) {
		s.Launch("r", core.Req{Region: r, Field: 0, Priv: privilege.Reads()})
	}
	// Fine writes, coarse read, coarse write, fine reads, root ops.
	for _, l := range leaves {
		w(l)
	}
	rd(top.Subregions[0])
	w(top.Subregions[1])
	for _, l := range leaves {
		rd(l)
	}
	w(tree.Root)
	rd(leaves[3])
	for _, l := range leaves {
		w(l)
	}
	rd(tree.Root)
	verifyAll(t, s)
}

// TestRootWritesOccludeEverything interleaves piece-level churn with full
// root writes — the dominating-write fast path and the painter's
// whole-node pruning.
func TestRootWritesOccludeEverything(t *testing.T) {
	tree, p, g := graphTree()
	up, _ := tree.Fields.Lookup("up")
	s := core.NewStream(tree)
	for round := 0; round < 3; round++ {
		for i := 0; i < 3; i++ {
			s.Launch("w", core.Req{Region: p.Subregions[i], Field: up, Priv: privilege.Writes()})
			s.Launch("red", core.Req{Region: g.Subregions[i], Field: up, Priv: privilege.Reduces(privilege.OpSum)})
		}
		s.Launch("wipe", core.Req{Region: tree.Root, Field: up, Priv: privilege.Writes()})
	}
	s.Launch("check", core.Req{Region: tree.Root, Field: up, Priv: privilege.Reads()})
	verifyAll(t, s)
}

// TestPartitionMigrationStream switches between two disjoint-complete
// partitions mid-stream, forcing the ray-casting analyzer to re-bucket.
func TestPartitionMigrationStream(t *testing.T) {
	fs := field.NewSpace()
	fs.Add("v")
	tree := region.NewTree("A", index.FromRect(geometry.R1(0, 63)), fs)
	fine := make([]index.Space, 8)
	for i := range fine {
		fine[i] = index.FromRect(geometry.R1(int64(i)*8, int64(i+1)*8-1))
	}
	coarse := []index.Space{
		index.FromRect(geometry.R1(0, 31)),
		index.FromRect(geometry.R1(32, 63)),
	}
	pf := tree.Root.Partition("fine", fine)
	pc := tree.Root.Partition("coarse", coarse)

	s := core.NewStream(tree)
	for round := 0; round < 3; round++ {
		for i := 0; i < 8; i++ {
			s.Launch("wf", core.Req{Region: pf.Subregions[i], Field: 0, Priv: privilege.Writes()})
		}
		// Sustained use of the coarse partition (longer than the
		// migration threshold) with reads in between.
		for k := 0; k < 12; k++ {
			s.Launch("rc", core.Req{Region: pc.Subregions[k%2], Field: 0, Priv: privilege.Reads()})
			s.Launch("wc", core.Req{Region: pc.Subregions[k%2], Field: 0, Priv: privilege.Writes()})
		}
	}
	verifyAll(t, s)
}

// migrationTree builds the fixture of the re-bucketing tests: root [0,11],
// disjoint-complete partitions P and Q with different piece boundaries,
// and a disjoint-incomplete partition D, which never triggers migration.
func migrationTree() (tree *region.Tree, p, q, d *region.Partition) {
	fs := field.NewSpace()
	fs.Add("v")
	tree = region.NewTree("A", index.FromRect(geometry.R1(0, 11)), fs)
	p = tree.Root.Partition("P", []index.Space{
		index.FromRect(geometry.R1(0, 5)),
		index.FromRect(geometry.R1(6, 11)),
	})
	q = tree.Root.Partition("Q", []index.Space{
		index.FromRect(geometry.R1(0, 1)),
		index.FromRect(geometry.R1(2, 9)),
		index.FromRect(geometry.R1(10, 11)),
	})
	d = tree.Root.Partition("D", []index.Space{index.FromRect(geometry.R1(2, 9))})
	return tree, p, q, d
}

// TestMigrationBetweenRequirements re-buckets the ray-casting analyzer
// between two requirements of one task: the write of D[0] holds the sets
// it refined under P when the read of Q[2] completes the migration to Q.
// The write must still commit into the live (re-bucketed) sets.
func TestMigrationBetweenRequirements(t *testing.T) {
	tree, p, q, d := migrationTree()
	s := core.NewStream(tree)
	s.Launch("wp0", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Writes()})
	s.Launch("wp1", core.Req{Region: p.Subregions[1], Field: 0, Priv: privilege.Writes()})
	for k := 0; k < migrateAfter-1; k++ {
		s.Launch("rq", core.Req{Region: q.Subregions[k%3], Field: 0, Priv: privilege.Reads()})
	}
	s.Launch("x",
		core.Req{Region: d.Subregions[0], Field: 0, Priv: privilege.Writes()},
		core.Req{Region: q.Subregions[2], Field: 0, Priv: privilege.Reads()})
	s.Launch("after", core.Req{Region: d.Subregions[0], Field: 0, Priv: privilege.Reads()})

	// The fixture must complete the migration inside x, not before it.
	rc := raycast.New(tree, core.Options{})
	for _, task := range s.Tasks {
		if task.Name == "x" && rc.CurrentPartition(0) != p {
			t.Fatalf("migrated before x: partition = %v, want P", rc.CurrentPartition(0))
		}
		rc.Analyze(task)
	}
	if rc.CurrentPartition(0) != q {
		t.Fatalf("partition after x = %v, want Q", rc.CurrentPartition(0))
	}
	verifyAll(t, s)
}

// TestForcedRebucketBetweenRequirements covers the same hazard on the
// fault plane: an even analyzer.eqset.migrate payload re-buckets against
// the current partition between the two requirements of task x. The
// live sets must still partition the root afterwards.
func TestForcedRebucketBetweenRequirements(t *testing.T) {
	tree, p, q, d := migrationTree()
	s := core.NewStream(tree)
	s.Launch("wp0", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Writes()})
	s.Launch("wp1", core.Req{Region: p.Subregions[1], Field: 0, Priv: privilege.Writes()})
	x := s.Launch("x",
		core.Req{Region: d.Subregions[0], Field: 0, Priv: privilege.Writes()},
		core.Req{Region: q.Subregions[2], Field: 0, Priv: privilege.Reads()})
	s.Launch("after", core.Req{Region: d.Subregions[0], Field: 0, Priv: privilege.Reads()})

	// Fire on x's second requirement; take the first plan seed whose
	// payload is even (re-bucket against the same partition, not K-d).
	var plan string
	for seed := 1; plan == ""; seed++ {
		cand := fmt.Sprintf("seed=%d;analyzer.eqset.migrate=every=2,arg=%d", seed, x.ID)
		probe, err := fault.NewFromString(cand)
		if err != nil {
			t.Fatal(err)
		}
		probe.FireValue(fault.EqMigrate, int64(x.ID))
		if _, v := probe.FireValue(fault.EqMigrate, int64(x.ID)); v&1 == 0 {
			plan = cand
		}
	}
	var rc *raycast.RayCast
	err := core.Verify(s, fullInit(tree), core.HashKernel{}, core.Factory{Name: "raycast-rebucket", New: func(tr *region.Tree) core.Analyzer {
		faults, err := fault.NewFromString(plan)
		if err != nil {
			t.Fatal(err)
		}
		rc = raycast.New(tr, core.Options{Faults: faults})
		return rc
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rc.CurrentPartition(0) != p {
		t.Fatalf("bucket partition = %v, want P", rc.CurrentPartition(0))
	}
	if err := testutil.CheckPartitionInvariant(rc.SetSpaces(0), tree.Root.Space); err != nil {
		t.Fatal(err)
	}
}

// TestKDFallbackStream runs a full mixed stream on a tree with no
// disjoint-complete partition at all.
func TestKDFallbackStream(t *testing.T) {
	fs := field.NewSpace()
	fs.Add("v")
	fs.Add("w")
	tree := region.NewTree("A", index.FromRect(geometry.R2(0, 0, 15, 15)), fs)
	q := tree.Root.Partition("Q", []index.Space{
		index.FromRect(geometry.R2(0, 0, 9, 9)),
		index.FromRect(geometry.R2(6, 6, 15, 15)),
		index.FromRect(geometry.R2(0, 10, 5, 15)),
	})
	for _, p := range tree.Root.Partitions {
		if p.DisjointComplete() {
			t.Fatal("fixture must have no disjoint-complete partition")
		}
	}
	s := core.NewStream(tree)
	for round := 0; round < 4; round++ {
		for i := 0; i < 3; i++ {
			s.Launch("w", core.Req{Region: q.Subregions[i], Field: 0, Priv: privilege.Writes()})
		}
		s.Launch("sum", core.Req{Region: q.Subregions[(round+1)%3], Field: 0, Priv: privilege.Reduces(privilege.OpSum)})
		s.Launch("r", core.Req{Region: tree.Root, Field: 0, Priv: privilege.Reads()})
		s.Launch("w2", core.Req{Region: q.Subregions[round%3], Field: 1, Priv: privilege.Writes()})
	}
	verifyAll(t, s)
}

// TestMixedReductionOperators alternates sum/min/max/prod reductions over
// aliased regions with occasional writes and reads — every operator switch
// is an interference boundary.
func TestMixedReductionOperators(t *testing.T) {
	tree, p, g := graphTree()
	up, _ := tree.Fields.Lookup("up")
	ops := []privilege.ReduceOp{privilege.OpSum, privilege.OpMin, privilege.OpMax, privilege.OpProd}
	s := core.NewStream(tree)
	for round, op := range ops {
		for i := 0; i < 3; i++ {
			s.Launch("red", core.Req{Region: g.Subregions[i], Field: up, Priv: privilege.Reduces(op)})
		}
		s.Launch("r", core.Req{Region: p.Subregions[round%3], Field: up, Priv: privilege.Reads()})
	}
	s.Launch("final", core.Req{Region: tree.Root, Field: up, Priv: privilege.Reads()})
	verifyAll(t, s)
}

// TestReadOnlyStream never mutates: everything must be parallel and all
// materializations must be the initial contents.
func TestReadOnlyStream(t *testing.T) {
	tree, p, g := graphTree()
	up, _ := tree.Fields.Lookup("up")
	s := core.NewStream(tree)
	for round := 0; round < 3; round++ {
		for i := 0; i < 3; i++ {
			s.Launch("r1", core.Req{Region: p.Subregions[i], Field: up, Priv: privilege.Reads()})
			s.Launch("r2", core.Req{Region: g.Subregions[i], Field: up, Priv: privilege.Reads()})
		}
	}
	verifyAll(t, s)

	// And every analyzer must find zero dependences.
	for _, fac := range allFactories() {
		an := fac.New(tree)
		for _, task := range s.Tasks {
			if deps := an.Analyze(task).Deps; len(deps) != 0 {
				t.Errorf("%s: read-only task %v got deps %v", fac.Name, task, deps)
			}
		}
	}
}

// TestSameTaskMultipleReqsSameField exercises tasks holding two
// requirements on the same field (allowed when both read or both reduce
// with one operator, §4), including overlapping ones.
func TestSameTaskMultipleReqsSameField(t *testing.T) {
	tree, p, g := graphTree()
	up, _ := tree.Fields.Lookup("up")
	s := core.NewStream(tree)
	for i := 0; i < 3; i++ {
		s.Launch("w", core.Req{Region: p.Subregions[i], Field: up, Priv: privilege.Writes()})
	}
	// Overlapping same-op reductions within one task.
	s.Launch("redred",
		core.Req{Region: g.Subregions[0], Field: up, Priv: privilege.Reduces(privilege.OpSum)},
		core.Req{Region: g.Subregions[1], Field: up, Priv: privilege.Reduces(privilege.OpSum)})
	// Overlapping reads within one task.
	s.Launch("rr",
		core.Req{Region: p.Subregions[1], Field: up, Priv: privilege.Reads()},
		core.Req{Region: g.Subregions[0], Field: up, Priv: privilege.Reads()})
	verifyAll(t, s)
}

// TestWarnockMemoAblationEquivalence checks the DisableMemo knob changes
// only cost, never results.
func TestWarnockMemoAblationEquivalence(t *testing.T) {
	tree, p, g := graphTree()
	s := core.NewStream(tree)
	for iter := 0; iter < 4; iter++ {
		for i := 0; i < 3; i++ {
			s.Launch("t1",
				core.Req{Region: p.Subregions[i], Field: 0, Priv: privilege.Writes()},
				core.Req{Region: g.Subregions[i], Field: 1, Priv: privilege.Reduces(privilege.OpSum)})
		}
	}
	err := core.Verify(s, fullInit(tree), core.HashKernel{},
		core.Factory{Name: "warnock-nomemo", New: func(tr *region.Tree) core.Analyzer {
			w := warnock.New(tr, core.Options{})
			w.DisableMemo = true
			return w
		}})
	if err != nil {
		t.Fatal(err)
	}
}
