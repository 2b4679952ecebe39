package main

import "sort"

// span is one timed interval on the shared clock. Track identifies the
// goroutine that ran it: self times are computed per track, because
// intervals on different goroutines overlap without nesting.
type span struct {
	name       string
	track      int
	start, end int64
}

// submitTrack is the goroutine that drives launches in the DES workloads.
const submitTrack = 0

// spanLog collects the benchmark's own spans. It is used from one
// goroutine.
type spanLog struct {
	spans []span
}

// since records a span from start until now on the submit track.
func (l *spanLog) since(name string, start int64) {
	if l != nil {
		l.spans = append(l.spans, span{name: name, track: submitTrack, start: start, end: now()})
	}
}

// selfTimes returns the exclusive time of every span name on track: each
// span's duration minus the part of it that spans nested inside it cover.
// Nesting is by interval containment: a span starting inside another and
// ending no later is its child. A span that starts inside another but
// outlives it is clipped to its parent for the subtraction. Spans that
// only touch (one ends where the next starts) are siblings.
func selfTimes(spans []span, track int) map[string]int64 {
	var on []span
	for _, s := range spans {
		if s.track == track && s.end >= s.start {
			on = append(on, s)
		}
	}
	// Parents before children: earlier start first, and at equal starts
	// the longer span first.
	sort.SliceStable(on, func(i, j int) bool {
		if on[i].start != on[j].start {
			return on[i].start < on[j].start
		}
		return on[i].end > on[j].end
	})
	self := make(map[string]int64)
	var stack []span
	for _, s := range on {
		for len(stack) > 0 && stack[len(stack)-1].end <= s.start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			parent := stack[len(stack)-1]
			self[parent.name] -= min(s.end, parent.end) - s.start
		}
		self[s.name] += s.end - s.start
		stack = append(stack, s)
	}
	return self
}
