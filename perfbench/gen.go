package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"visibility/internal/wire"
)

// The tenant program is the same for every tenant, as every session of
// `visserve -load N` runs the same graphsim workload. Its shape comes from
// the repository's own small programs: the 100-cell region split into
// four equal blocks of the quickstart workload (wire.ExampleQuickstart),
// and the width-1 halos and two fields of examples/stencil2d. Each tenant
// has a 1-D region "cells" with fields u and v, an equal partition "blk",
// and a halo partition "halo", the image of blk under the window relation.
// Neighboring halos alias, so every iteration carries dependences across
// pieces.
const (
	// serveTenants is the number of sessions, as `visserve -load 4` (the
	// load mode's own test) runs it.
	serveTenants = 4
	haloCells    = 100
	haloPieces   = 4
	haloRadius   = 1
	// batchTasks is the number of tasks one write batch launches.
	batchTasks = 3 * haloPieces
)

// request is one scheduled operation of the serve-mixed load.
type request struct {
	due    time.Duration // send time, from the start of the phase
	tenant int
	kind   string // "write", "snapshot" or "explain"
	body   []byte // write: the encoded batch
	field  string // snapshot: the field read
	// pick selects, for an explain, which task to explain: the task at
	// this fraction of the tenant's launches so far.
	pick float64
}

// declaration is a tenant's first workload: the region, its partitions
// and initial contents, and one iteration of tasks.
func declaration(rng *rand.Rand) *wire.Workload {
	wl := &wire.Workload{
		Version: wire.Version,
		Name:    "halo",
		Regions: []wire.RegionDecl{{
			Name:   "cells",
			Dim:    1,
			Space:  [][]int64{{0, haloCells - 1}},
			Fields: []string{"u", "v"},
			Init: map[string]*wire.FuncSpec{
				"u": {Name: "coord", Args: map[string]float64{"axis": 0}},
				"v": {Name: "fill", Args: map[string]float64{"value": 1}},
			},
			Partitions: []wire.PartitionDecl{
				{Name: "blk", Kind: "equal", Pieces: haloPieces},
				{Name: "halo", Kind: "image", Source: "blk",
					Relation: &wire.FuncSpec{Name: "window", Args: map[string]float64{"radius": haloRadius}}},
			},
		}},
	}
	wl.Tasks = iteration(rng).Tasks
	return wl
}

// iteration is one batch: every piece relaxes v from its halo of u,
// spreads a sum-reduction over its halo of v, and updates u from its
// halo of v. Coefficients are dyadic, so values stay exact.
func iteration(rng *rand.Rand) *wire.Workload {
	affine := func() *wire.FuncSpec {
		return &wire.FuncSpec{Name: "affine", Args: map[string]float64{
			"scale":  float64(1+rng.Intn(3)) / 4,
			"offset": float64(rng.Intn(8)) / 8,
		}}
	}
	wl := &wire.Workload{Version: wire.Version, Name: "halo-iteration"}
	relax, spread, update := affine(), &wire.FuncSpec{Name: "fill", Args: map[string]float64{"value": float64(rng.Intn(4)) / 16}}, affine()
	for i := 0; i < haloPieces; i++ {
		wl.Tasks = append(wl.Tasks, wire.TaskDecl{Name: "relax", Accesses: []wire.AccessDecl{
			{Region: fmt.Sprintf("halo[%d]", i), Field: "u", Privilege: "read"},
			{Region: fmt.Sprintf("blk[%d]", i), Field: "v", Privilege: "write", Kernel: relax},
		}})
	}
	for i := 0; i < haloPieces; i++ {
		wl.Tasks = append(wl.Tasks, wire.TaskDecl{Name: "spread", Accesses: []wire.AccessDecl{
			{Region: fmt.Sprintf("halo[%d]", i), Field: "v", Privilege: "reduce", Op: "sum", Kernel: spread},
		}})
	}
	for i := 0; i < haloPieces; i++ {
		wl.Tasks = append(wl.Tasks, wire.TaskDecl{Name: "update", Accesses: []wire.AccessDecl{
			{Region: fmt.Sprintf("halo[%d]", i), Field: "v", Privilege: "read"},
			{Region: fmt.Sprintf("blk[%d]", i), Field: "u", Privilege: "write", Kernel: update},
		}})
	}
	return wl
}

func encode(wl *wire.Workload) []byte {
	var buf bytes.Buffer
	if err := wire.Encode(&buf, wl); err != nil {
		panic(err) // a bytes.Buffer does not fail and generated workloads encode
	}
	return buf.Bytes()
}

// kinds is the repeating request pattern each tenant follows, each
// starting at its own offset. As in `visserve -load`, which submits a
// workload and then reads a snapshot of the same session, every write is
// followed by one read that queues behind it; every second read is an
// explain instead of a snapshot. The explains are an assumption: the
// load mode makes none.
var kinds = []string{"write", "snapshot", "write", "explain"}

// genDeclarations returns each tenant's declaration.
func genDeclarations(seed int64) []*wire.Workload {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]*wire.Workload, serveTenants)
	for i := range out {
		out[i] = declaration(rng)
	}
	return out
}

// genSchedule draws an open-loop schedule of n requests at a fixed rate
// (requests per second): evenly spaced send times, tenants in turn, kinds
// in the repeating pattern, with seeded write batches, snapshot fields
// and explain picks.
func genSchedule(seed int64, rate float64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]request, n)
	for i := range out {
		r := request{
			due:    time.Duration(float64(i) / rate * 1e9),
			tenant: i % serveTenants,
			kind:   kinds[(i/serveTenants+i%serveTenants)%len(kinds)],
		}
		switch r.kind {
		case "snapshot":
			r.field = []string{"u", "v"}[rng.Intn(2)]
		case "explain":
			r.pick = rng.Float64()
		default:
			r.body = encode(iteration(rng))
		}
		out[i] = r
	}
	return out
}
