package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite digests.json from the current program")

// TestGoldenDigests pins the dependence digest of one episode of every
// DES cell. Run with -update to record the program's current output.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one episode of every DES cell")
	}
	got := map[string]string{}
	for _, spec := range []desSpec{circuitRaycast, pennantSweep, pennantReplay} {
		for _, c := range spec.cells {
			ep, err := runEpisode(c, spec, false, 0)
			if err != nil {
				t.Fatalf("%s: %v", c, err)
			}
			got[digestKey(c, spec.nodes, spec.iters)] = fmt.Sprintf("%016x", ep.digest)
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("digests.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var want map[string]string
	if err := json.Unmarshal(goldenDigests, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("digests %v, golden %v", got, want)
	}
}

// TestTracingKeepsDigest checks that the timing decorators and program
// spans of a traced episode leave the analysis output unchanged.
func TestTracingKeepsDigest(t *testing.T) {
	c := pennantReplay.cells[0]
	spec := pennantReplay
	spec.iters = 5
	plain, err := runEpisode(c, spec, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runEpisode(c, spec, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plain.digest != traced.digest || plain.virtIter != traced.virtIter || plain.launches != traced.launches {
		t.Fatalf("traced episode digest/virt_iter/launches %x/%v/%d, untraced %x/%v/%d",
			traced.digest, traced.virtIter, traced.launches, plain.digest, plain.virtIter, plain.launches)
	}
	if traced.dropped != 0 || len(traced.self) == 0 {
		t.Fatalf("traced episode dropped %d spans and timed %d span names", traced.dropped, len(traced.self))
	}
}
