package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRecorderKeepsLastN(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		ev := mkEvent(fmt.Sprintf("ev%d", i), MatMul, Neural, time.Millisecond, 1, 1)
		r.Record("req", &ev)
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot = %d entries, want 3", len(snap))
	}
	// Oldest-first: events 2, 3, 4 survive.
	for i, rec := range snap {
		want := fmt.Sprintf("ev%d", i+2)
		if rec.Ev.Name != want {
			t.Fatalf("snapshot[%d] = %q, want %q", i, rec.Ev.Name, want)
		}
		if rec.ID != "req" {
			t.Fatalf("snapshot[%d] id = %q", i, rec.ID)
		}
		if rec.Time.IsZero() {
			t.Fatalf("snapshot[%d] has zero record time", i)
		}
	}
	if r.Total() != 5 || r.Dropped() != 2 || r.Cap() != 3 {
		t.Fatalf("total/dropped/cap = %d/%d/%d, want 5/2/3", r.Total(), r.Dropped(), r.Cap())
	}
}

func TestRecorderPartialFill(t *testing.T) {
	r := NewRecorder(8)
	ev := mkEvent("only", MatMul, Neural, time.Millisecond, 1, 1)
	r.Record("a", &ev)
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Ev.Name != "only" || r.Dropped() != 0 {
		t.Fatalf("snapshot = %+v dropped = %d", snap, r.Dropped())
	}
}

func TestRecorderCopiesEvent(t *testing.T) {
	r := NewRecorder(2)
	ev := mkEvent("orig", MatMul, Neural, time.Millisecond, 1, 1)
	r.Record("a", &ev)
	ev.Name = "mutated"
	if got := r.Snapshot()[0].Ev.Name; got != "orig" {
		t.Fatalf("recorder aliased the event: %q", got)
	}
}

func TestRecorderDefaultCapacity(t *testing.T) {
	// Non-positive capacities clamp to the documented default rather than
	// producing a useless one-slot (or panicking zero-slot) ring.
	for _, n := range []int{0, -1, -512} {
		r := NewRecorder(n)
		if r.Cap() != DefaultRecorderCapacity {
			t.Fatalf("NewRecorder(%d).Cap() = %d, want DefaultRecorderCapacity (%d)",
				n, r.Cap(), DefaultRecorderCapacity)
		}
		// The clamped ring must actually record.
		ev := mkEvent("ev", MatMul, Neural, time.Millisecond, 1, 1)
		r.Record("req", &ev)
		if got := len(r.Snapshot()); got != 1 {
			t.Fatalf("NewRecorder(%d) snapshot = %d entries, want 1", n, got)
		}
	}
}

func TestRecorderSpanRingEviction(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		start := stamp(time.Duration(i) * time.Millisecond)
		r.RecordSpan("req", SpanAt(fmt.Sprintf("sp%d", i), "serve", 0, start, start.Add(time.Millisecond)))
	}
	snap := r.SnapshotSpans()
	if len(snap) != 3 {
		t.Fatalf("span snapshot = %d entries, want 3", len(snap))
	}
	// Oldest-first after overwrite: spans 2, 3, 4 survive, in order.
	for i, rec := range snap {
		if want := fmt.Sprintf("sp%d", i+2); rec.Span.Name != want {
			t.Fatalf("snapshot[%d] = %q, want %q", i, rec.Span.Name, want)
		}
	}
}

func TestRecorderSpanDropsOpenSpans(t *testing.T) {
	r := NewRecorder(4)
	r.RecordSpan("req", Span{Name: "open", Kind: "serve", Start: stamp(0)}) // zero End
	if got := len(r.SnapshotSpans()); got != 0 {
		t.Fatalf("open span was recorded (%d entries)", got)
	}
}

func TestRecorderByIDIsolation(t *testing.T) {
	r := NewRecorder(32)
	for i := 0; i < 3; i++ {
		ev := mkEvent("a-op", MatMul, Neural, time.Millisecond, 1, 1)
		r.Record("req-a", &ev)
		ev = mkEvent("b-op", Other, Symbolic, time.Millisecond, 1, 1)
		r.Record("req-b", &ev)
		start := stamp(time.Duration(i) * time.Millisecond)
		r.RecordSpan("req-a", SpanAt("a-span", "serve", 0, start, start.Add(time.Millisecond)))
		r.RecordSpan("req-b", SpanAt("b-span", "serve", 0, start, start.Add(time.Millisecond)))
	}
	if evs := r.EventsByID("req-a"); len(evs) != 3 {
		t.Fatalf("EventsByID(req-a) = %d, want 3", len(evs))
	} else {
		for _, e := range evs {
			if e.Ev.Name != "a-op" {
				t.Fatalf("req-a got foreign event %q", e.Ev.Name)
			}
		}
	}
	if sps := r.SpansByID("req-b"); len(sps) != 3 {
		t.Fatalf("SpansByID(req-b) = %d, want 3", len(sps))
	} else {
		for _, s := range sps {
			if s.Span.Name != "b-span" {
				t.Fatalf("req-b got foreign span %q", s.Span.Name)
			}
		}
	}
	if evs := r.EventsByID("req-c"); len(evs) != 0 {
		t.Fatalf("unknown ID returned %d events", len(evs))
	}
}

// TestRecorderSpanConcurrent hammers the span ring from recording and
// snapshotting goroutines at once; run under -race it is the data-race
// check for the dual-ring recorder.
func TestRecorderSpanConcurrent(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	stopReaders := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("req-%d", g)
			for i := 0; i < 200; i++ {
				start := stamp(time.Duration(i) * time.Microsecond)
				r.RecordSpan(id, SpanAt("sp", "serve", g, start, start.Add(time.Microsecond)))
				ev := mkEvent("op", MatMul, Neural, time.Microsecond, 1, 1)
				r.Record(id, &ev)
			}
		}(g)
	}
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
					r.SnapshotSpans()
					r.SpansByID("req-1")
					r.RequestTrace("req-2", "node")
				}
			}
		}()
	}
	wg.Wait()
	close(stopReaders)
	readers.Wait()
	r.mu.Lock()
	got := r.spansTotal
	r.mu.Unlock()
	if got != 800 {
		t.Fatalf("spans total = %d, want 800", got)
	}
	if got := len(r.SnapshotSpans()); got != 64 {
		t.Fatalf("span snapshot = %d, want 64 (capacity)", got)
	}
}

func TestRecorderObserverConcurrent(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			obs := r.Observer(fmt.Sprintf("req-%d", g))
			for i := 0; i < 100; i++ {
				ev := mkEvent("op", MatMul, Neural, time.Millisecond, 1, 1)
				obs(&ev)
			}
		}(g)
	}
	wg.Wait()
	if r.Total() != 800 {
		t.Fatalf("total = %d, want 800", r.Total())
	}
	if len(r.Snapshot()) != 64 {
		t.Fatalf("snapshot = %d, want 64", len(r.Snapshot()))
	}
}
