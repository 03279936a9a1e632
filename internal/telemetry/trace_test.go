package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerDeterministicTree(t *testing.T) {
	build := func() string {
		tr := NewTracer(7)
		root := tr.Begin(RootSpan, "solve/shard", "nodes=100 edges=900")
		a := tr.Begin(root, "shard/solve", "shard=0 nodes=60")
		b := tr.Begin(root, "shard/solve", "shard=1 nodes=40")
		tr.End(b, "canceled")
		tr.End(a, "ok cost=12")
		tr.End(root, "ok iters=2")
		return tr.Tree()
	}
	t1, t2 := build(), build()
	if t1 != t2 {
		t.Fatalf("trees differ:\n%s\nvs\n%s", t1, t2)
	}
	lines := strings.Split(strings.TrimSpace(t1), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 span lines, got %q", lines)
	}
	if !strings.HasPrefix(lines[0], "solve/shard#") || !strings.Contains(lines[0], "-> ok iters=2") {
		t.Fatalf("root line wrong: %q", lines[0])
	}
	// Children render in Begin order with two-space indent, even though
	// b ended before a.
	if !strings.HasPrefix(lines[1], "  shard/solve#") || !strings.Contains(lines[1], "shard=0") {
		t.Fatalf("child 0 wrong: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "  shard/solve#") || !strings.Contains(lines[2], "shard=1") {
		t.Fatalf("child 1 wrong: %q", lines[2])
	}
}

func TestTracerSeedChangesIDs(t *testing.T) {
	id1 := NewTracer(1).Begin(RootSpan, "s", "")
	id2 := NewTracer(2).Begin(RootSpan, "s", "")
	if id1 == id2 {
		t.Fatalf("different seeds produced the same span ID")
	}
	if id1 == RootSpan || id2 == RootSpan {
		t.Fatalf("Begin returned RootSpan")
	}
}

func TestTracerDurationsOutOfBand(t *testing.T) {
	tr := NewTracer(3)
	id := tr.Begin(RootSpan, "solve/x", "")
	tr.End(id, "ok")
	tree := tr.Tree()
	tr.SetDuration(id, 42*time.Millisecond)
	if tr.Tree() != tree {
		t.Fatalf("SetDuration changed the tree rendering")
	}
	// TimedTree is Tree plus the recorded durations, and nothing else.
	child := tr.Begin(id, "refine", "")
	tr.End(child, "recovered=3")
	timed := tr.TimedTree()
	if want := strings.Replace(tr.Tree(), " -> ok\n", " -> ok (42.000ms)\n", 1); timed != want {
		t.Fatalf("TimedTree =\n%s\nwant\n%s", timed, want)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	id := tr.Begin(RootSpan, "x", "")
	if id != RootSpan {
		t.Fatalf("nil tracer Begin = %v", id)
	}
	tr.End(id, "")
	tr.SetDuration(id, time.Second)
	if tr.Len() != 0 || tr.Tree() != "" || tr.TimedTree() != "" {
		t.Fatalf("nil tracer not inert")
	}
}

func TestTracerOpenSpanMarked(t *testing.T) {
	tr := NewTracer(1)
	tr.Begin(RootSpan, "hung", "")
	if !strings.Contains(tr.Tree(), "[open]") {
		t.Fatalf("unended span not marked open:\n%s", tr.Tree())
	}
}

func TestTracerConcurrentEnd(t *testing.T) {
	// Begin on a coordinator, End from workers — the discipline any
	// concurrent instrumentation follows. The tree must come out
	// identical regardless of End interleaving.
	build := func() string {
		tr := NewTracer(11)
		root := tr.Begin(RootSpan, "solve/shard", "shards=8")
		ids := make([]SpanID, 8)
		for i := range ids {
			ids[i] = tr.Begin(root, "shard/solve", "")
		}
		var wg sync.WaitGroup
		for _, id := range ids {
			wg.Add(1)
			go func(id SpanID) {
				defer wg.Done()
				tr.End(id, "ok")
			}(id)
		}
		wg.Wait()
		tr.End(root, "ok")
		return tr.Tree()
	}
	t1, t2 := build(), build()
	if t1 != t2 {
		t.Fatalf("concurrent End broke determinism:\n%s\nvs\n%s", t1, t2)
	}
}
