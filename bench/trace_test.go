package main

import (
	"math"
	"testing"
	"time"
)

// Self time is a span's duration minus the union of its direct children's
// intervals: overlapping children count once, grandchildren not at all.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "bench.round", Parent: noSpan, Start: 0, End: 100},
		{Name: "bench.client", Parent: 0, Start: 10, End: 60}, // overlaps the next
		{Name: "bench.client", Parent: 0, Start: 40, End: 90}, // union with the above: [10, 90)
		{Name: "fldist.Client.Pull", Parent: 1, Start: 10, End: 30},
		{Name: "fldist.Client.Push", Parent: 1, Start: 50, End: 70}, // runs past its parent: clipped to [50, 60)
		{Name: "never.closed", Parent: 0, Start: 95, End: -1},
	}
	want := []int64{20, 20, 50, 20, 20, 0}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	sum := summarize(spans)
	if c := sum["bench.client"]; c.Count != 2 || math.Abs(c.BusyMS-100e-6) > 1e-12 || math.Abs(c.SelfMS-70e-6) > 1e-12 {
		t.Errorf("bench.client summary = %+v", c)
	}
	if _, ok := sum["never.closed"]; ok {
		t.Error("an unclosed span was summarized")
	}
	if l := layerOf("fldist.Client.Pull"); l != "fldist" {
		t.Errorf("layerOf = %q", l)
	}
}

// A nil tracer is the untraced run and a paused one records nothing; both
// hand out noSpan, which every other method accepts.
func TestTracerNilAndPaused(t *testing.T) {
	var none *tracer
	id := none.start("x", noSpan, 0, 0)
	none.end(id)
	none.pause(true)
	if id != noSpan || none.finished() != nil {
		t.Fatal("nil tracer recorded something")
	}
	tr := newTracer()
	tr.pause(true)
	if tr.start("x", noSpan, 0, 0) != noSpan {
		t.Fatal("paused tracer recorded a span")
	}
	tr.pause(false)
	parent := tr.start("a.outer", noSpan, 7, 0)
	child := tr.startAt("a.inner", parent, 7, 3, time.Now())
	tr.end(child)
	tr.end(parent)
	got := tr.finished()
	if len(got) != 2 || got[1].Parent != parent || got[1].Trace != 7 || got[1].Arg != 3 || got[0].End < got[1].End {
		t.Fatalf("spans = %+v", got)
	}
}
