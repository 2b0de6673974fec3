package main

import (
	"sort"
	"sync"
	"time"
)

// span is one traced call into a layer: its name (layer.function), the
// interval it covered, the span that caused it (-1 for a root), and the
// request it served (a campaign or job id).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Request string `json:"request"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced runs execute the same code path
// at the cost of a nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id, or -1 on a nil tracer.
func (t *tracer) begin(name, req string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Request: req, StartNS: now, EndNS: -1})
	return id
}

// end closes span id; a no-op for id -1.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name, req string, parent int, fn func(id int) error) error {
	id := t.begin(name, req, parent)
	defer t.end(id)
	return fn(id)
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.EndNS >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that child spans cover. Children may overlap each
// other (concurrent workers), so their covered time is the union of
// their intervals clipped to the parent's.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered int64
		curLo, curHi := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.StartNS, s.StartNS), min(k.EndNS, s.EndNS)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		covered += curHi - curLo
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// spanStats summarizes, per span name, the count and total and self
// time in milliseconds — the "where did the time go" table of a run.
type spanStat struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func spanStats(spans []span) map[string]spanStat {
	self := selfTimes(spans)
	out := make(map[string]spanStat)
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		st.TotalMS += ms(s.dur())
		st.SelfMS += ms(self[s.ID])
		out[s.Name] = st
	}
	return out
}

// durations returns the durations of every span with the given name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// interval records a span over an interval the caller observed rather
// than wrapped, such as a job's wait in the service queue.
func (t *tracer) interval(name, req string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Request: req,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds()})
}
