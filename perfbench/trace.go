package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans from the benchmark's own code around each call
// into a layer's public function: name, start, end and the span that
// caused it. Spans stay in memory until the round ends. A nil *tracer
// records nothing, so the untraced path pays one nil check per call.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

type span struct {
	id, parent int64
	name       string
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end closes it.
type spanRef struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Duration
}

// start opens a span under parent (0 for a root).
func (t *tracer) start(name string, parent int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{t: t, id: t.next.Add(1), parent: parent, name: name, start: time.Since(t.t0)}
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	end := time.Since(s.t.t0)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{id: s.id, parent: s.parent, name: s.name, start: s.start, end: end})
	s.t.mu.Unlock()
}

// layerTimes is one span name's accounting over a round.
type layerTimes struct {
	calls int
	self  time.Duration // summed self time: duration minus covered child time
	lane  time.Duration // summed durations (exceeds wall when calls overlap)
	wall  time.Duration // union of the calls' intervals
	durs  []time.Duration
}

type interval struct{ lo, hi time.Duration }

// unionLen is the total length covered by the intervals.
func unionLen(iv []interval) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = x
		} else if x.hi > cur.hi {
			cur.hi = x.hi
		}
	}
	return total + cur.hi - cur.lo
}

// analyze folds the recorded spans into per-name self, lane and wall
// time. A span's self time is its duration minus the part of its
// interval its children cover.
func (t *tracer) analyze() map[string]*layerTimes {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int64][]interval)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	out := make(map[string]*layerTimes)
	ivs := make(map[string][]interval)
	for _, s := range spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.name] = lt
		}
		d := s.end - s.start
		var covered []interval
		for _, c := range children[s.id] {
			lo, hi := max(c.lo, s.start), min(c.hi, s.end)
			if hi > lo {
				covered = append(covered, interval{lo, hi})
			}
		}
		lt.calls++
		lt.self += d - unionLen(covered)
		lt.lane += d
		lt.durs = append(lt.durs, d)
		ivs[s.name] = append(ivs[s.name], interval{s.start, s.end})
	}
	for name, iv := range ivs {
		out[name].wall = unionLen(iv)
	}
	return out
}

// wallUnder is the union length of the named spans that descend from a
// span named root — how much of the root's wall time that layer kept
// busy.
func (t *tracer) wallUnder(root string, names ...string) time.Duration {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.id] = s
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var iv []interval
	for _, s := range spans {
		if !want[s.name] {
			continue
		}
		for p := s.parent; p != 0; p = byID[p].parent {
			if byID[p].name == root {
				iv = append(iv, interval{s.start, s.end})
				break
			}
		}
	}
	return unionLen(iv)
}
