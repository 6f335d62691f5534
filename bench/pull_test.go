package main

import (
	"bytes"
	"testing"
)

// The request schedule is a pure function of (seed, worker): the same seed
// gives byte-identical schedules, another seed or worker a different one,
// and the drawn mix is the declared one.
func TestPullScheduleFromSeed(t *testing.T) {
	const n = 1 << 14
	a, b := scheduleBytes(pullSchedule(42, 0, n)), scheduleBytes(pullSchedule(42, 0, n))
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed and worker drew different schedules")
	}
	if bytes.Equal(a, scheduleBytes(pullSchedule(43, 0, n))) || bytes.Equal(a, scheduleBytes(pullSchedule(42, 1, n))) {
		t.Fatal("another seed or worker drew the same schedule")
	}
	var count [numPullKinds]int
	for _, r := range pullSchedule(42, 0, n) {
		count[r.kind]++
		switch r.kind {
		case pullDelta:
			if r.lag > 3 {
				t.Fatalf("delta pull with lag %d", r.lag)
			}
		case pullLagged:
			if r.lag <= deltaWindow {
				t.Fatalf("lagged pull with lag %d inside the window", r.lag)
			}
		}
	}
	total := 0
	for _, parts := range pullMix {
		total += parts
	}
	if total != 1000 {
		t.Fatalf("pullMix sums to %d parts per thousand", total)
	}
	for k, parts := range pullMix {
		want := float64(parts) / 1000
		got := float64(count[k]) / n
		if got < want*0.5-0.001 || got > want*1.5+0.001 {
			t.Errorf("%s: %.4f of the schedule, mix says %.4f", pullKindNames[k], got, want)
		}
	}
}
