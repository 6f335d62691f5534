package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer keeps spans in memory and writes them out once, when the run
// ends. Spans are recorded by this harness around its own calls into a
// layer's public functions — nothing inside the measured program is
// instrumented — so a span's name is the function it brackets
// ("fldist.Client.Pull") and its layer is the name's first component.
//
// A nil *tracer is the untraced run: every method is a no-op on it, so the
// workloads call it unconditionally and the end-to-end numbers pay one nil
// check per site.

// spanID indexes tracer.spans; noSpan marks "no parent".
type spanID int32

const noSpan spanID = -1

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch. Trace groups the spans of one round or request; Arg carries the one
// integer a site wants to keep (module index, round, HTTP status).
type span struct {
	Name   string `json:"name"`
	Parent spanID `json:"parent"`
	Trace  int    `json:"trace"`
	Arg    int    `json:"arg"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch  time.Time
	paused atomic.Bool // set while set-up and the untraced base phase run
	mu     sync.Mutex
	spans  []span
}

// pause stops (or resumes) recording: a paused tracer hands out noSpan, so
// the wrappers a traced run installed at set-up cost a load and a branch.
func (t *tracer) pause(on bool) {
	if t != nil {
		t.paused.Store(on)
	}
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span now.
func (t *tracer) start(name string, parent spanID, trace, arg int) spanID {
	if t == nil {
		return noSpan
	}
	return t.startAt(name, parent, trace, arg, time.Now())
}

// startAt opens a span at a time the caller already read, for sites that
// learn of a boundary after the fact (a round hook fires when the round
// ends, which is also when the next begins).
func (t *tracer) startAt(name string, parent spanID, trace, arg int, at time.Time) spanID {
	if t == nil || t.paused.Load() {
		return noSpan
	}
	s := span{Name: name, Parent: parent, Trace: trace, Arg: arg, Start: int64(at.Sub(t.epoch)), End: -1}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	id := spanID(len(t.spans) - 1)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id spanID) { t.endAt(id, time.Now()) }

func (t *tracer) endAt(id spanID, at time.Time) {
	if t == nil || id == noSpan {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(at.Sub(t.epoch))
	t.mu.Unlock()
}

// finished returns the closed spans, in start order of recording.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, len(t.spans))
	copy(out, t.spans)
	return out
}

// selfTimes returns, per span, its duration minus the part of that interval
// its direct children cover. Children that overlap one another (parallel
// clients under one round) are counted once: the covered part is the union
// of their intervals clipped to the parent's.
func selfTimes(spans []span) []int64 {
	children := make(map[spanID][][2]int64)
	for _, s := range spans {
		if s.Parent != noSpan && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		self[i] = s.End - s.Start - covered(children[spanID(i)], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of ivs within [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	at := lo
	for _, iv := range ivs {
		a, b := max(iv[0], at), min(iv[1], hi)
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}

// layerOf is the module a span name belongs to: its first dotted component.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// spanSummary is the per-name roll-up a traced run derives its layer
// numbers from.
type spanSummary struct {
	Count  int     `json:"count"`
	BusyMS float64 `json:"busy_ms"`
	SelfMS float64 `json:"self_ms"`
}

func summarize(spans []span) map[string]spanSummary {
	self := selfTimes(spans)
	out := map[string]spanSummary{}
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		sum := out[s.Name]
		sum.Count++
		sum.BusyMS += float64(s.End-s.Start) / 1e6
		sum.SelfMS += float64(self[i]) / 1e6
		out[s.Name] = sum
	}
	return out
}

// durationsMS returns the durations of every closed span with the given
// name, in milliseconds.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// maxSpansWritten caps trace.json: a serve workload records a span pair per
// request, and a file of every one of them would cost more to write than the
// run it describes. The summaries always cover every span.
const maxSpansWritten = 20000

// traceFile is the layout of out/trace.json.
type traceFile struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Spans    []span                 `json:"spans"`
	Dropped  int                    `json:"spans_not_written"`
	ByName   map[string]spanSummary `json:"by_name"`
	ByLayer  map[string]spanSummary `json:"by_layer"`
}

// writeTrace writes the spans and their roll-ups. Parent links in the
// written prefix stay valid: a parent is always recorded before its
// children.
func writeTrace(path, workload string, seed int64, spans []span) error {
	byName := summarize(spans)
	byLayer := map[string]spanSummary{}
	for name, s := range byName {
		l := byLayer[layerOf(name)]
		l.Count += s.Count
		l.BusyMS += s.BusyMS
		l.SelfMS += s.SelfMS
		byLayer[layerOf(name)] = l
	}
	tf := traceFile{Workload: workload, Seed: seed, Spans: spans, ByName: byName, ByLayer: byLayer}
	if len(spans) > maxSpansWritten {
		tf.Spans, tf.Dropped = spans[:maxSpansWritten], len(spans)-maxSpansWritten
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
