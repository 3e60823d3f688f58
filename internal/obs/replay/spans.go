package replay

import (
	"fmt"
	"sort"
	"time"

	"podnas/internal/obs"
	"podnas/internal/obs/span"
)

// Span is one reconstructed trace span. Times are run-relative offsets: a
// KindSpan event is emitted at span end with Seconds holding the duration,
// so Start = T − Seconds and End = T.
type Span struct {
	Trace  span.ID
	ID     span.ID
	Parent span.ID // zero for a root
	Name   string
	Start  time.Duration
	End    time.Duration
	// Eval/Worker/Epoch/Job carry the emitting event's attribution.
	Eval   int
	Worker int
	Epoch  int
	Job    string
	// Children are this span's direct children, ordered by start time then
	// span ID (deterministic for identical traces).
	Children []*Span
	// Orphan marks a span whose Parent never appeared in the trace (a
	// truncated log, or an old driver that dropped the parent's frames); it
	// is promoted to a root so its subtree still renders.
	Orphan bool
}

// Duration is the span's recorded extent.
func (s *Span) Duration() time.Duration { return s.End - s.Start }

// Trace is one assembled span tree: every span sharing a trace ID.
type Trace struct {
	ID    span.ID
	Roots []*Span
	// Spans is every span of the trace in deterministic order (start time,
	// then span ID).
	Spans []*Span
}

// Start and End bound the whole trace.
func (t *Trace) Start() time.Duration {
	if len(t.Spans) == 0 {
		return 0
	}
	min := t.Spans[0].Start
	for _, s := range t.Spans {
		if s.Start < min {
			min = s.Start
		}
	}
	return min
}

func (t *Trace) End() time.Duration {
	var max time.Duration
	for _, s := range t.Spans {
		if s.End > max {
			max = s.End
		}
	}
	return max
}

// Spans assembles every trace's span tree from a recorded event stream.
// Reconstruction is deterministic: the same events produce the same trees
// regardless of the (concurrency-dependent) order span events landed in the
// log, because spans sort by their recorded offsets and IDs, never by log
// position. Undecodable span events (corrupt IDs) are skipped. Traces are
// returned ordered by trace ID.
func Spans(events []obs.Event) []*Trace {
	byTrace := make(map[span.ID][]*Span)
	for _, e := range events {
		if e.Kind != obs.KindSpan {
			continue
		}
		tr, err1 := span.ParseID(e.Trace)
		id, err2 := span.ParseID(e.Span)
		if err1 != nil || err2 != nil {
			continue
		}
		var parent span.ID
		if e.Parent != "" {
			p, err := span.ParseID(e.Parent)
			if err != nil {
				continue
			}
			parent = p
		}
		end := e.T
		start := end - time.Duration(e.Seconds*float64(time.Second))
		if start < 0 {
			start = 0
		}
		byTrace[tr] = append(byTrace[tr], &Span{
			Trace: tr, ID: id, Parent: parent, Name: e.Name,
			Start: start, End: end,
			Eval: e.Eval, Worker: e.Worker, Epoch: e.Epoch, Job: e.Job,
		})
	}

	traces := make([]*Trace, 0, len(byTrace))
	for tr, spans := range byTrace {
		sort.Slice(spans, func(a, b int) bool {
			if spans[a].Start != spans[b].Start {
				return spans[a].Start < spans[b].Start
			}
			return spans[a].ID < spans[b].ID
		})
		// A span ID can legally repeat only if the same span was recorded
		// twice (a tee sink double-logging); keep the first occurrence.
		byID := make(map[span.ID]*Span, len(spans))
		uniq := spans[:0]
		for _, s := range spans {
			if byID[s.ID] != nil {
				continue
			}
			byID[s.ID] = s
			uniq = append(uniq, s)
		}
		t := &Trace{ID: tr, Spans: uniq}
		for _, s := range uniq {
			if s.Parent != 0 {
				if p := byID[s.Parent]; p != nil && p != s {
					p.Children = append(p.Children, s)
					continue
				}
				s.Orphan = true
			}
			t.Roots = append(t.Roots, s)
		}
		traces = append(traces, t)
	}
	sort.Slice(traces, func(a, b int) bool { return traces[a].ID < traces[b].ID })
	return traces
}

// CriticalStep is one hop of a trace's critical path.
type CriticalStep struct {
	Span *Span
	// Self is the step's exclusive time: its duration minus the union of
	// all its children's intervals, each clipped to the step's own extent.
	// Sequential children (epochs under train, evals under search) are all
	// subtracted, not just the critical one.
	Self time.Duration
}

// CriticalPath walks a trace from its longest root down, at each level
// descending into the child whose end time is latest (ties break toward the
// longer child, then the smaller span ID). The result is the chain of spans
// that bounded the trace's wall clock — the place to look when a run is
// slower than expected.
func CriticalPath(t *Trace) []CriticalStep {
	if len(t.Roots) == 0 {
		return nil
	}
	root := t.Roots[0]
	for _, r := range t.Roots[1:] {
		if r.Duration() > root.Duration() {
			root = r
		}
	}
	var path []CriticalStep
	for s := root; s != nil; {
		var next *Span
		for _, c := range s.Children {
			if next == nil || c.End > next.End ||
				(c.End == next.End && (c.Duration() > next.Duration() ||
					(c.Duration() == next.Duration() && c.ID < next.ID))) {
				next = c
			}
		}
		path = append(path, CriticalStep{Span: s, Self: selfTime(s)})
		s = next
	}
	return path
}

// selfTime is s's duration minus the union of its children's intervals
// clipped to s. Children are ordered by start time, so one sweep with a
// high-water mark merges overlapping intervals.
func selfTime(s *Span) time.Duration {
	var covered time.Duration
	mark := s.Start
	for _, c := range s.Children {
		lo, hi := max(c.Start, mark), min(c.End, s.End)
		if hi > lo {
			covered += hi - lo
			mark = hi
		}
	}
	return s.Duration() - covered
}

// FormatSpanTree renders one trace as an indented text tree (nasreport
// spans' non-SVG output), deterministic for identical traces.
func FormatSpanTree(t *Trace) string {
	var out []byte
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		for i := 0; i < depth; i++ {
			out = append(out, "  "...)
		}
		tag := ""
		if s.Orphan {
			tag = " (orphan)"
		}
		out = append(out, fmt.Sprintf("%s %s +%.3fs %.3fs%s\n",
			s.ID, s.Name, s.Start.Seconds(), s.Duration().Seconds(), tag)...)
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range t.Roots {
		walk(r, 0)
	}
	return string(out)
}
