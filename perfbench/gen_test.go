package main

import (
	"bytes"
	"reflect"
	"testing"

	"visibility/internal/wire"
)

func TestScheduleDeterministic(t *testing.T) {
	a := genSchedule(7, 500, 200)
	b := genSchedule(7, 500, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if !reflect.DeepEqual(encodeAll(genDeclarations(7)), encodeAll(genDeclarations(7))) {
		t.Fatal("the same seed gave different declarations")
	}
	c := genSchedule(8, 500, 200)
	differ := false
	for i := range a {
		if a[i].due != c[i].due || a[i].kind != c[i].kind {
			t.Fatalf("request %d: the send time and kind must not depend on the seed", i)
		}
		if !bytes.Equal(a[i].body, c[i].body) || a[i].field != c[i].field || a[i].pick != c[i].pick {
			differ = true
		}
	}
	if !differ {
		t.Fatal("different seeds gave identical requests")
	}
	if reflect.DeepEqual(encodeAll(genDeclarations(7)), encodeAll(genDeclarations(8))) {
		t.Fatal("different seeds gave identical declarations")
	}
}

func encodeAll(wls []*wire.Workload) [][]byte {
	out := make([][]byte, len(wls))
	for i, wl := range wls {
		out[i] = encode(wl)
	}
	return out
}

func TestGeneratedWorkloadsDecode(t *testing.T) {
	for i, decl := range encodeAll(genDeclarations(3)) {
		if _, err := wire.Decode(bytes.NewReader(decl)); err != nil {
			t.Fatalf("declaration %d: %v", i, err)
		}
	}
	for i, r := range genSchedule(3, 100, 50) {
		if r.kind != "write" {
			continue
		}
		wl, err := wire.Decode(bytes.NewReader(r.body))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if len(wl.Tasks) != batchTasks {
			t.Fatalf("request %d: %d tasks, want %d", i, len(wl.Tasks), batchTasks)
		}
	}
}
