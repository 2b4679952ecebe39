package main

import (
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	sp := func(name string, track int, start, end int64) span {
		return span{name: name, track: track, start: start, end: end}
	}
	tests := []struct {
		name  string
		spans []span
		want  map[string]int64
	}{
		{
			name:  "nested",
			spans: []span{sp("outer", 0, 0, 100), sp("mid", 0, 10, 60), sp("inner", 0, 20, 30)},
			want:  map[string]int64{"outer": 50, "mid": 40, "inner": 10},
		},
		{
			name:  "adjacent",
			spans: []span{sp("a", 0, 0, 10), sp("b", 0, 10, 25)},
			want:  map[string]int64{"a": 10, "b": 15},
		},
		{
			name:  "siblings under one parent",
			spans: []span{sp("p", 0, 0, 100), sp("c", 0, 10, 20), sp("c", 0, 20, 50), sp("d", 0, 60, 70)},
			want:  map[string]int64{"p": 50, "c": 40, "d": 10},
		},
		{
			name:  "equal start: the longer span is the parent",
			spans: []span{sp("child", 0, 0, 10), sp("parent", 0, 0, 30)},
			want:  map[string]int64{"parent": 20, "child": 10},
		},
		{
			name:  "other goroutines excluded",
			spans: []span{sp("p", 0, 0, 100), sp("elsewhere", 1, 10, 90), sp("c", 0, 40, 50)},
			want:  map[string]int64{"p": 90, "c": 10},
		},
		{
			name:  "a child outliving its parent is clipped",
			spans: []span{sp("p", 0, 0, 50), sp("c", 0, 40, 70)},
			want:  map[string]int64{"p": 40, "c": 30},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := selfTimes(tt.spans, 0); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("selfTimes = %v, want %v", got, tt.want)
			}
		})
	}
}
