package replay

import (
	"testing"
	"time"

	"podnas/internal/obs"
	"podnas/internal/obs/span"
)

// spanEvent builds the KindSpan event a live recorder would have written:
// emitted at span end, Seconds = duration.
func spanEvent(c span.Context, parent span.ID, name string, start, dur time.Duration) obs.Event {
	e := span.End(c, parent, name, dur)
	e.T = start + dur
	return e
}

func TestSpansAssemblesTree(t *testing.T) {
	root := span.NewTrace("run/AE/1")
	search := span.Derive(root, "search")
	eval0 := span.Derive(search, "eval", 0)
	eval1 := span.Derive(search, "eval", 1)
	train := span.Derive(eval0, "train", 7)
	epoch := span.Derive(train, "epoch", 0)

	events := []obs.Event{
		// Log order is completion order — leaves land before their parents.
		spanEvent(epoch, train.Span, "epoch", 10*time.Millisecond, 5*time.Millisecond),
		spanEvent(train, eval0.Span, "train", 10*time.Millisecond, 20*time.Millisecond),
		spanEvent(eval0, search.Span, "eval", 5*time.Millisecond, 30*time.Millisecond),
		spanEvent(eval1, search.Span, "eval", 40*time.Millisecond, 10*time.Millisecond),
		spanEvent(search, root.Span, "search", 0, 60*time.Millisecond),
		{Kind: obs.KindEvalFinish, Eval: 0}, // non-span noise is ignored
	}
	traces := Spans(events)
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	tr := traces[0]
	if tr.ID != root.Trace {
		t.Fatalf("trace id %s, want %s", tr.ID, root.Trace)
	}
	if len(tr.Spans) != 5 {
		t.Fatalf("spans = %d, want 5", len(tr.Spans))
	}
	if len(tr.Roots) != 1 || tr.Roots[0].ID != search.Span {
		t.Fatalf("roots = %+v, want the search span", tr.Roots)
	}
	s := tr.Roots[0]
	if len(s.Children) != 2 || s.Children[0].ID != eval0.Span || s.Children[1].ID != eval1.Span {
		t.Fatalf("search children wrong: %+v", s.Children)
	}
	e0 := s.Children[0]
	if len(e0.Children) != 1 || e0.Children[0].ID != train.Span {
		t.Fatalf("eval0 children wrong: %+v", e0.Children)
	}
	tn := e0.Children[0]
	if len(tn.Children) != 1 || tn.Children[0].Name != "epoch" {
		t.Fatalf("train children wrong: %+v", tn.Children)
	}
	if got := tn.Children[0].Start; got != 10*time.Millisecond {
		t.Fatalf("epoch start %v, want 10ms", got)
	}
	if got := tn.Children[0].Duration(); got != 5*time.Millisecond {
		t.Fatalf("epoch duration %v, want 5ms", got)
	}
	if tr.Start() != 0 || tr.End() != 60*time.Millisecond {
		t.Fatalf("trace extent [%v, %v], want [0, 60ms]", tr.Start(), tr.End())
	}
}

func TestSpansDeterministicUnderReordering(t *testing.T) {
	root := span.NewTrace("run/AE/1")
	search := span.Derive(root, "search")
	var events []obs.Event
	for i := 0; i < 6; i++ {
		ev := span.Derive(search, "eval", uint64(i))
		events = append(events, spanEvent(ev, search.Span, "eval",
			time.Duration(i)*time.Millisecond, 10*time.Millisecond))
	}
	events = append(events, spanEvent(search, root.Span, "search", 0, 20*time.Millisecond))

	a := FormatSpanTree(Spans(events)[0])
	// Reverse the log order — completion order under concurrency is
	// arbitrary; the reconstructed tree must not care.
	rev := make([]obs.Event, len(events))
	for i, e := range events {
		rev[len(events)-1-i] = e
	}
	b := FormatSpanTree(Spans(rev)[0])
	if a != b {
		t.Fatalf("tree depends on log order:\n%s\nvs\n%s", a, b)
	}
}

func TestSpansOrphanPromotion(t *testing.T) {
	root := span.NewTrace("run/RS/2")
	search := span.Derive(root, "search")
	ev := span.Derive(search, "eval", 0)
	// The search span never made it into the (truncated) log.
	events := []obs.Event{spanEvent(ev, search.Span, "eval", 0, time.Millisecond)}
	tr := Spans(events)[0]
	if len(tr.Roots) != 1 || !tr.Roots[0].Orphan {
		t.Fatalf("orphan span not promoted to root: %+v", tr.Roots)
	}
}

func TestSpansSeparatesTraces(t *testing.T) {
	a := span.NewTrace("job/j1")
	b := span.NewTrace("job/j2")
	events := []obs.Event{
		spanEvent(a, 0, "job", 0, time.Second),
		spanEvent(b, 0, "job", 0, time.Second),
	}
	traces := Spans(events)
	if len(traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(traces))
	}
	if traces[0].ID >= traces[1].ID {
		t.Fatalf("traces not ordered by ID: %s, %s", traces[0].ID, traces[1].ID)
	}
}

func TestSpansSkipsCorruptAndDuplicate(t *testing.T) {
	root := span.NewTrace("run/AE/3")
	good := spanEvent(root, 0, "search", 0, time.Second)
	corrupt := good
	corrupt.Span = "not-hex"
	dup := good
	events := []obs.Event{good, corrupt, dup}
	tr := Spans(events)
	if len(tr) != 1 || len(tr[0].Spans) != 1 {
		t.Fatalf("want 1 trace with 1 span, got %+v", tr)
	}
}

func TestCriticalPath(t *testing.T) {
	root := span.NewTrace("run/AE/4")
	search := span.Derive(root, "search")
	evFast := span.Derive(search, "eval", 0)
	evSlow := span.Derive(search, "eval", 1)
	train := span.Derive(evSlow, "train", 9)
	events := []obs.Event{
		spanEvent(search, root.Span, "search", 0, 100*time.Millisecond),
		spanEvent(evFast, search.Span, "eval", 0, 10*time.Millisecond),
		spanEvent(evSlow, search.Span, "eval", 0, 90*time.Millisecond),
		spanEvent(train, evSlow.Span, "train", 5*time.Millisecond, 80*time.Millisecond),
	}
	tr := Spans(events)[0]
	path := CriticalPath(tr)
	if len(path) != 3 {
		t.Fatalf("path length %d, want 3: %+v", len(path), path)
	}
	names := []string{path[0].Span.Name, path[1].Span.Name, path[2].Span.Name}
	if names[0] != "search" || names[1] != "eval" || names[2] != "train" {
		t.Fatalf("path %v, want search→eval→train", names)
	}
	if path[1].Span.ID != evSlow.Span {
		t.Fatalf("critical eval is the fast one")
	}
	// Exclusive times: search 100−90=10ms, eval 90−80=10ms, train 80ms.
	if path[0].Self != 10*time.Millisecond || path[1].Self != 10*time.Millisecond || path[2].Self != 80*time.Millisecond {
		t.Fatalf("self times %v %v %v", path[0].Self, path[1].Self, path[2].Self)
	}
	if len(CriticalPath(&Trace{})) != 0 {
		t.Fatalf("empty trace should have no critical path")
	}

	// Sequential children all count against the parent's self time, not
	// just the critical (last-ending) one: train 100ms with three
	// back-to-back 20ms epochs keeps 100−60=40ms for itself.
	trainRoot := span.NewTrace("run/RS/5")
	seqTrain := span.Derive(trainRoot, "train", 0)
	events = []obs.Event{spanEvent(seqTrain, trainRoot.Span, "train", 0, 100*time.Millisecond)}
	for i := 0; i < 3; i++ {
		ep := span.Derive(seqTrain, "epoch", uint64(i))
		events = append(events, spanEvent(ep, seqTrain.Span, "epoch", time.Duration(10+20*i)*time.Millisecond, 20*time.Millisecond))
	}
	path = CriticalPath(Spans(events)[0])
	if len(path) != 2 || path[0].Span.Name != "train" {
		t.Fatalf("sequential path %+v, want train→epoch", path)
	}
	if path[0].Self != 40*time.Millisecond || path[1].Self != 20*time.Millisecond {
		t.Fatalf("sequential self times %v %v, want 40ms 20ms", path[0].Self, path[1].Self)
	}

	// Overlapping children count once, and a child running past its
	// parent is clipped: epochs [10,40] ∪ [30,60] ∪ [90,100] cover 60ms.
	events = []obs.Event{spanEvent(seqTrain, trainRoot.Span, "train", 0, 100*time.Millisecond)}
	for i, iv := range [][2]time.Duration{{10, 40}, {30, 60}, {90, 110}} {
		ep := span.Derive(seqTrain, "epoch", uint64(i))
		events = append(events, spanEvent(ep, seqTrain.Span, "epoch", iv[0]*time.Millisecond, (iv[1]-iv[0])*time.Millisecond))
	}
	path = CriticalPath(Spans(events)[0])
	if path[0].Self != 40*time.Millisecond {
		t.Fatalf("overlapping self time %v, want 40ms", path[0].Self)
	}
}
