// Command bench is the repository's one benchmark: five workloads over the
// whole system — the cascade and end-to-end adversarial-training loops, the
// parameter server's push and pull paths over loopback HTTP, and a real
// federation of fldist clients — each reporting the same named end-to-end
// metrics, and on a traced run the per-layer metrics, with every output
// checked. README.md in this directory says what each metric means per
// workload and how later changes compare against it.
//
//	bash bench/run.sh --workload serve.push --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh                      # every workload, untraced
//	bash bench/run.sh --trace 1            # every workload, per-layer metrics
//	bash bench/run.sh --sets 10 --out bench/out/sets.json
//	bash bench/run.sh --smoke              # <3 s, every workload, all checks
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the process exits
// non-zero when an output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fedprophet/bench/internal/stat"
)

// metricDef is one declared metric: BENCHMARK.json lists exactly these names
// and units (TestBenchmarkJSONMatches holds the two together).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics every workload reports on an untraced run. What
// one "op" is differs per workload and is fixed in README.md: a training
// sample (train.*, fed.wire), an admitted update (serve.push), a pull
// (serve.pull); latency is per round (train.*, fed.wire) or per request.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"wire_bytes_per_op", "B"},
	{"setup_s", "s"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what one workload run is given.
type config struct {
	seed    int64
	seconds float64
	workers int     // C: closed-loop workers / client parallelism
	size    sizes   // full or smoke
	tr      *tracer // nil on an untraced run
	outDir  string  // scratch inside the checkout (WAL probe, trace.json)
}

// tracedSplit is how a traced run of a request-driven workload spends its
// time: the first quarter with the tracer paused, as the base that
// trace_overhead_frac compares the traced remainder against.
func tracedSplit(cfg *config, phase func(tr *tracer, seconds float64)) {
	if cfg.tr == nil {
		phase(nil, cfg.seconds)
		return
	}
	cfg.tr.pause(true)
	phase(nil, cfg.seconds/4)
	cfg.tr.pause(false)
	phase(cfg.tr, 3*cfg.seconds/4)
}

// report is what a workload hands back. Latencies are the raw samples; the
// harness derives the median and the tail from them so every workload
// applies the same percentile rule.
type report struct {
	throughput     float64   // ops per second, already a median where reps exist
	ops            float64   // ops measured, the base of the per-op runtime numbers
	latMS          []float64 // per-round or per-request latency samples
	p50MS          float64   // set by workloads whose samples are several populations; 0 = median of latMS
	tailMS         float64   // set by workloads that read the tail per window or population; 0 = derive from latMS
	tailNote       string    // how tailMS was read, when the workload set it
	wireBytesPerOp float64
	attempted      int
	failed         int
	problems       []string           // failed output checks, one line each
	layer          map[string]float64 // workload-specific per-layer values
	notes          []string           // human-readable detail lines
}

func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// instance is one set-up workload, ready to measure.
type instance interface {
	run(cfg *config) (*report, error)
	close()
}

// workloadDef names a workload and builds it. setups is how many times the
// harness sets it up to take the median set-up time; cheap set-ups repeat
// more so the median settles.
type workloadDef struct {
	name   string
	setups int
	setup  func(cfg *config) (instance, error)
}

var workloads = []workloadDef{
	{"train.cascade", 3, func(c *config) (instance, error) { return setupTrain(c, "FedProphet") }},
	{"train.e2e", 3, func(c *config) (instance, error) { return setupTrain(c, "jFAT") }},
	{"serve.push", 5, setupPush},
	{"serve.pull", 5, setupPull},
	{"fed.wire", 3, setupWire},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// numWorkers is C: load comes from this one process, sized to the machine
// but capped so a large host does not turn the closed loop into a different
// workload.
func numWorkers() int { return min(runtime.NumCPU(), 4) }

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (default: all five)")
		seed    = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 10, "seconds each workload measures for")
		trace   = fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans to out/trace.json")
		smoke   = fs.Bool("smoke", false, "tiny sizes, every workload and check, no timing meaning (<3 s)")
		sets    = fs.Int("sets", 0, "repeatability mode: run the untraced suite N times (seed, seed+1, …), print spreads, check them against BENCHMARK.json")
		out     = fs.String("out", "", "with -sets: write the runs to this file, for benchcmp")
		spec    = fs.String("spec", "BENCHMARK.json", "with -sets: where the bounds are read from")
		outDir  = fs.String("outdir", filepath.Join("bench", "out"), "where a run writes (trace.json, the WAL probe's log)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace is 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "bench: -seconds must be positive\n")
		return 2
	}
	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workloadDef{*w}
	}
	cfg := config{
		seed: *seed, seconds: *seconds, workers: numWorkers(),
		size: fullSizes(), outDir: *outDir,
	}
	if *smoke {
		cfg.size = smokeSizes()
		cfg.seconds = 0.2
	}
	if *sets > 0 {
		return runSets(&cfg, selected, *sets, *out, *spec, stdout, stderr)
	}
	code := 0
	for _, w := range selected {
		res, err := runWorkload(&cfg, w, *trace == 1, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload sets a workload up (several times, for the median set-up
// time), measures it, and turns the report into the declared metrics. On a
// traced run it also runs the layer probes, writes out/trace.json and
// reports the per-layer set instead of the end-to-end one.
func runWorkload(base *config, w workloadDef, traced bool, stdout io.Writer) (*result, error) {
	cfg := *base
	if traced {
		// The tracer exists before set-up so a rig can wrap its handler, but
		// records nothing until the measured phase.
		cfg.tr = newTracer()
		cfg.tr.pause(true)
	}
	var setupS []float64
	var inst instance
	for i := 0; i < w.setups; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC() // every set-up starts from the same heap, so they time alike
		t0 := time.Now()
		var err error
		if inst, err = w.setup(&cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer inst.close()

	cfg.tr.pause(false)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	peak := startHeapSampler()
	rep, err := inst.run(&cfg)
	heapPeak := peak.stop()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}

	sorted := stat.Sorted(rep.latMS)
	tailQ := stat.TailQ(len(sorted))
	tail, tailNote := rep.tailMS, rep.tailNote
	if tail == 0 {
		tail, tailNote = stat.Percentile(sorted, tailQ), fmt.Sprintf("p%g", 100*tailQ)
	}
	p50 := rep.p50MS
	if p50 == 0 {
		p50 = stat.Percentile(sorted, 0.5)
	}
	res := &result{
		Correct:   rep.failed == 0,
		Attempted: max(rep.attempted, 1),
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(stdout, "== %s  seed=%d  seconds=%g  C=%d  GOMAXPROCS=%d  traced=%v\n",
		w.name, cfg.seed, cfg.seconds, cfg.workers, runtime.GOMAXPROCS(0), traced)
	e2e := map[string]float64{
		"throughput_per_s":  rep.throughput,
		"latency_p50_ms":    p50,
		"latency_tail_ms":   tail,
		"wire_bytes_per_op": rep.wireBytesPerOp,
		"setup_s":           stat.Median(setupS),
	}
	failedFrac := float64(rep.failed) / float64(max(rep.attempted, 1))
	if !traced {
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metric{e2e[d.Name], d.Unit}
			detail := ""
			switch d.Name {
			case "latency_p50_ms":
				detail = fmt.Sprintf("  (n=%d)", len(sorted))
			case "latency_tail_ms":
				detail = fmt.Sprintf("  (%s, n=%d)", tailNote, len(sorted))
			case "setup_s":
				detail = fmt.Sprintf("  (median of %d set-ups)", len(setupS))
			}
			fmt.Fprintf(stdout, "%-14s %-28s %14.4f %-6s%s\n", w.name, d.Name, e2e[d.Name], d.Unit, detail)
		}
	} else {
		spans := cfg.tr.finished()
		layer, err := runProbes(&cfg)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		for k, v := range rep.layer {
			layer[k] = v
		}
		ops := max(rep.ops, 1)
		layer["runtime.heap_peak_mb"] = float64(heapPeak) / (1 << 20)
		layer["runtime.alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / ops
		layer["runtime.mallocs_per_op"] = float64(after.Mallocs-before.Mallocs) / ops
		layer["trace.spans"] = float64(len(spans))
		for _, d := range perLayer {
			res.Metrics[d.Name] = metric{layer[d.Name], d.Unit}
			fmt.Fprintf(stdout, "%-14s %-28s %14.4f %s\n", w.name, d.Name, layer[d.Name], d.Unit)
		}
		for k := range layer {
			if !declared(perLayer, k) {
				return nil, fmt.Errorf("per-layer value %q is not declared", k)
			}
		}
		path := filepath.Join(cfg.outDir, "trace.json")
		if err := writeTrace(path, w.name, cfg.seed, spans); err != nil {
			return nil, fmt.Errorf("writing %s: %w", path, err)
		}
		fmt.Fprintf(stdout, "%-14s %d spans -> %s\n", w.name, len(spans), path)
	}
	fmt.Fprintf(stdout, "%-14s %-28s %14.6f        (%d failed of %d attempted)\n",
		w.name, "failed_frac", failedFrac, rep.failed, rep.attempted)
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "%-14s   %s\n", w.name, n)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stdout, "%-14s CHECK FAILED: %s\n", w.name, p)
	}
	return res, nil
}

func declared(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// heapSampler tracks the peak in-use heap while a workload runs.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64)}
	go func() {
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		var ms runtime.MemStats
		var peak uint64
		for {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapInuse)
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}

// runSets is the repeatability mode: n untraced runs of every selected
// workload on seeds seed, seed+1, …; per metric the median, quartiles and
// spread (interquartile distance as a share of the median), held against the
// metric's bound from BENCHMARK.json. The two halves of the runs must also
// agree: the second half's median may not be worse than the first's by more
// than the bound — the same two tests the driver applies.
func runSets(cfg *config, selected []workloadDef, n int, out, specPath string, stdout, stderr io.Writer) int {
	var spec stat.Spec
	if err := stat.ReadJSON(specPath, &spec); err != nil {
		fmt.Fprintf(stderr, "bench: -sets reads the bounds from BENCHMARK.json: %v\n", err)
		return 1
	}
	sf := stat.Sets{Seconds: cfg.seconds, Workloads: map[string]map[string][]float64{}}
	code := 0
	for i := 0; i < n; i++ {
		run := *cfg
		run.seed = cfg.seed + int64(i)
		sf.Seeds = append(sf.Seeds, run.seed)
		for _, w := range selected {
			res, err := runWorkload(&run, w, false, io.Discard)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(stderr, "bench: %s seed %d: output check failed\n", w.name, run.seed)
				code = 1
			}
			if sf.Workloads[w.name] == nil {
				sf.Workloads[w.name] = map[string][]float64{}
			}
			for k, m := range res.Metrics {
				sf.Workloads[w.name][k] = append(sf.Workloads[w.name][k], m.Value)
			}
			fmt.Fprintf(stderr, "set %d/%d %s done\n", i+1, n, w.name)
		}
	}
	fmt.Fprintf(stdout, "%-14s %-20s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "median", "q1", "q3", "spread", "bound", "")
	for _, w := range selected {
		for _, m := range spec.EndToEnd {
			vals := sf.Workloads[w.name][m.Name]
			q1, q3 := stat.Quartiles(vals)
			spread := stat.Spread(vals)
			verdict := "ok"
			// setup_s is exempt from the spread test, as in the driver.
			if spread > m.Bound && m.Name != "setup_s" {
				verdict = "SPREAD EXCEEDS BOUND"
				code = 1
			}
			if n >= 4 {
				a, b := stat.Median(vals[:n/2]), stat.Median(vals[n/2:])
				worse := (b - a) / a
				if m.Better == "higher" {
					worse = -worse
				}
				if worse > m.Bound {
					verdict = fmt.Sprintf("HALVES DISAGREE (second %.1f%% worse)", 100*worse)
					code = 1
				}
			}
			fmt.Fprintf(stdout, "%-14s %-20s %12.4f %12.4f %12.4f %7.2f%% %5.0f%%  %s\n",
				w.name, m.Name, stat.Median(vals), q1, q3, 100*spread, 100*m.Bound, verdict)
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(sf, "", " ")
		if err == nil {
			if err = os.MkdirAll(filepath.Dir(out), 0o755); err == nil {
				err = os.WriteFile(out, b, 0o644)
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: writing %s: %v\n", out, err)
			return 1
		}
	}
	return code
}
