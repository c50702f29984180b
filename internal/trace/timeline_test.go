package trace

import (
	"testing"
	"time"
)

func TestSpanStackDepthAndClose(t *testing.T) {
	tr := New()
	tr.BeginSpan(Span{Name: "outer"})
	tr.BeginSpan(Span{Name: "inner"})
	tr.End()
	tr.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["outer"].Depth != 0 || byName["inner"].Depth != 1 {
		t.Fatalf("depths = outer:%d inner:%d, want 0/1", byName["outer"].Depth, byName["inner"].Depth)
	}
	for _, s := range spans {
		if s.Start.IsZero() || s.End.IsZero() || s.End.Before(s.Start) {
			t.Fatalf("span %q has bad bounds: %+v", s.Name, s)
		}
	}
}

func TestEndOnEmptyStackIsNoOp(t *testing.T) {
	tr := New()
	tr.End() // must not panic
	if n := len(tr.Spans()); n != 0 {
		t.Fatalf("spans = %d, want 0", n)
	}
}

// Merge must preserve wall-clock timestamps and worker lanes verbatim —
// only Seq is rewritten — and the renumbering must depend only on shard
// order, not on when shards were built.
func TestMergePreservesTimelineFields(t *testing.T) {
	parent := New()
	epoch := parent.Epoch()

	shard := func(worker int, startUs int64, names ...string) *Trace {
		tr := New()
		tr.SetEpoch(epoch)
		for i, name := range names {
			ev := mkEvent(name, MatMul, Neural, time.Millisecond, 10, 10)
			ev.Start = epoch.Add(time.Duration(startUs+int64(i)) * time.Microsecond)
			ev.Worker = worker
			tr.Append(ev)
		}
		tr.AddSpan(Span{
			Name: "shard", Kind: SpanStage, Worker: worker,
			Start: epoch.Add(time.Duration(startUs) * time.Microsecond),
			End:   epoch.Add(time.Duration(startUs+100) * time.Microsecond),
		})
		return tr
	}

	parent.Append(mkEvent("root", Other, Neural, time.Millisecond, 1, 1))
	parent.Merge(shard(2, 500, "s2a", "s2b"), shard(1, 200, "s1a"))

	evs := parent.Events
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	// Seq renumbered in merge order.
	wantNames := []string{"root", "s2a", "s2b", "s1a"}
	for i, ev := range evs {
		if ev.Seq != i || ev.Name != wantNames[i] {
			t.Fatalf("event %d = {Seq:%d Name:%q}, want {Seq:%d Name:%q}", i, ev.Seq, ev.Name, i, wantNames[i])
		}
	}
	// Start and Worker carried verbatim.
	if evs[1].Worker != 2 || evs[3].Worker != 1 {
		t.Fatalf("workers = %d/%d, want 2/1", evs[1].Worker, evs[3].Worker)
	}
	if got := evs[1].Start.Sub(epoch); got != 500*time.Microsecond {
		t.Fatalf("s2a start offset = %v, want 500µs", got)
	}
	if got := evs[3].Start.Sub(epoch); got != 200*time.Microsecond {
		t.Fatalf("s1a start offset = %v, want 200µs", got)
	}
	// Spans carried through with bounds intact.
	spans := parent.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Worker != 2 || spans[1].Worker != 1 {
		t.Fatalf("span workers = %d/%d, want 2/1", spans[0].Worker, spans[1].Worker)
	}
	if d := spans[0].Duration(); d != 100*time.Microsecond {
		t.Fatalf("span duration = %v, want 100µs", d)
	}
}

// Equal durations must tie-break on Seq so TopOps is deterministic.
func TestTopOpsTieBreakIsStable(t *testing.T) {
	tr := New()
	for _, name := range []string{"a", "b", "c"} {
		tr.Append(mkEvent(name, MatMul, Neural, time.Millisecond, 1, 1))
	}
	tr.Append(mkEvent("big", MatMul, Neural, 2*time.Millisecond, 1, 1))
	top := tr.TopOps(4)
	wantOrder := []string{"big", "a", "b", "c"}
	for i, ev := range top {
		if ev.Name != wantOrder[i] {
			t.Fatalf("TopOps order = %v at %d, want %v", ev.Name, i, wantOrder)
		}
	}
}
