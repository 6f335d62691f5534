package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"fedprophet/bench/internal/stat"
	"fedprophet/internal/attack"
	"fedprophet/internal/cascade"
	"fedprophet/internal/data"
	"fedprophet/internal/device"
	"fedprophet/internal/exp"
	"fedprophet/internal/fl"
	"fedprophet/internal/fldist"
	"fedprophet/internal/memmodel"
	"fedprophet/internal/nn"
	"fedprophet/internal/quant"
	"fedprophet/internal/tensor"
)

// perLayer are the metrics a traced run reports: the layer probes below
// (every workload reports them — they time each layer's public functions at
// the workloads' own shapes, so they are the same measurement whichever
// workload ran), plus the numbers a workload derives from its spans and its
// server's Stats(), which are zero on workloads that never enter the layer.
var perLayer = []metricDef{
	{"tensor.gemm_gflops", "GFLOP/s"},
	{"tensor.im2col_ns_per_elem", "ns"},
	{"nn.fwd_ms", "ms"},
	{"nn.bwd_ms", "ms"},
	{"nn.sgd_ms", "ms"},
	{"nn.alloc_bytes_per_step", "B"},
	{"attack.pgd_ms_per_batch", "ms"},
	{"attack.pgd_self_ms", "ms"},
	{"cascade.adv_step_ms", "ms"},
	{"cascade.prefix_fwd_ms", "ms"},
	{"cascade.prefix_share", "ratio"},
	{"core.round_ms", "ms"},
	{"core.stage_ms_max", "ms"},
	{"fl.aggregate_ms", "ms"},
	{"fl.eval_ms", "ms"},
	{"fl.parallel_speedup", "ratio"},
	{"quant.encode_mb_s", "MB/s"},
	{"quant.decode8_mb_s", "MB/s"},
	{"quant.decode4_mb_s", "MB/s"},
	{"quant.topk_ms", "ms"},
	{"quant.sparse_encode_ms", "ms"},
	{"quant.bytes_per_param_8", "B"},
	{"quant.bytes_per_param_4", "B"},
	{"quant.bytes_per_param_topk", "B"},
	{"fldist.push_handler_us", "us"},
	{"fldist.advance_ms", "ms"},
	{"fldist.pull_hit_us", "us"},
	{"fldist.build_ms", "ms"},
	{"fldist.wal_overhead_frac", "ratio"},
	{"fldist.wal_bytes_per_update", "B"},
	{"fldist.http_share", "ratio"},
	{"fldist.served_builds", "count"},
	{"fldist.delta_pulls", "count"},
	{"fldist.cold_pulls", "count"},
	{"fldist.admit_p50_us", "us"},
	{"fldist.admit_p99_us", "us"},
	{"fldist.duplicates_dropped", "count"},
	{"fldist.conflicts_409", "count"},
	{"fldist.client_pull_ms", "ms"},
	{"fldist.client_train_ms", "ms"},
	{"fldist.client_push_ms", "ms"},
	{"data.generate_ms", "ms"},
	{"exp.newenv_ms", "ms"},
	{"memmodel.mem_reduction", "ratio"},
	{"simlat.round_latency_s", "s"},
	{"quality.clean_acc", "ratio"},
	{"quality.pgd_acc", "ratio"},
	{"quality.final_loss", "loss"},
	{"runtime.heap_peak_mb", "MB"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.mallocs_per_op", "count"},
	{"trace_overhead_frac", "ratio"},
	{"trace.spans", "count"},
}

// timeIt calls f until budget has passed (at least three times) and returns
// the median duration of a call in nanoseconds.
func timeIt(budget time.Duration, f func()) float64 {
	var ns []float64
	for begin := time.Now(); len(ns) < 3 || time.Since(begin) < budget; {
		t0 := time.Now()
		f()
		ns = append(ns, float64(time.Since(t0)))
	}
	return stat.Median(ns)
}

const batch = 8 // exp.NewEnv trains every workload at batch 8

// runProbes times each layer's public functions in isolation. The model is
// the train workloads' (VGG16-S at width 4), the vector the serve workloads'
// (VGG16-S at width 8).
func runProbes(cfg *config) (map[string]float64, error) {
	out := map[string]float64{}
	budget := cfg.size.probe
	rng := rand.New(rand.NewSource(cfg.seed))
	model := cfg.size.wireModel(rng)
	x := tensor.Randn(rng, 0.5, append([]int{batch}, model.InShape...)...)
	y := make([]int, batch)
	for i := range y {
		y[i] = rng.Intn(model.NumClasses)
	}

	probeTensor(out, budget, rng, model)
	probeNN(out, budget, model, x, y)
	probeAttack(out, budget, rng, model, x, y)
	probeCascade(out, budget, rng, model, x, y)
	probeFL(out, cfg, budget, rng, model)
	sm := newServeModel(cfg)
	probeQuant(out, budget, sm)
	if err := probeFldist(out, cfg, budget, sm); err != nil {
		return nil, err
	}

	sc := cfg.size.scale
	out["data.generate_ms"] = timeIt(budget, func() {
		data.Generate(data.CIFAR10SConfig(sc.TrainPerClass, sc.TestPerClass, cfg.seed))
	}) / 1e6
	out["exp.newenv_ms"] = timeIt(budget, func() {
		exp.NewEnv(exp.CIFAR10S(), sc, device.Balanced, cfg.seed)
	}) / 1e6
	return out, nil
}

// probeTensor times the GEMM and the im2col of every convolution of the
// model at its own shape, one batch of images each, and reports the totals
// as a rate: tensor.gemm_gflops over the summed multiply-adds,
// tensor.im2col_ns_per_elem over the summed column-matrix elements.
func probeTensor(out map[string]float64, budget time.Duration, rng *rand.Rand, m *nn.Model) {
	var flops, gemmNS, elems, colNS float64
	in := m.InShape
	for _, atom := range m.Atoms {
		convs := nn.CollectConvs(atom)
		if len(convs) > 0 {
			c := convs[0]
			h, w := in[1], in[2]
			oh, ow := tensor.ConvOutDims(h, w, c.Kernel, c.Stride, c.Pad)
			k := c.InC * c.Kernel * c.Kernel
			src := tensor.Randn(rng, 1, c.InC*h*w).Data
			col := make([]float64, k*oh*ow)
			wt := tensor.Randn(rng, 1, c.OutC*k).Data
			dst := make([]float64, c.OutC*oh*ow)
			colNS += timeIt(budget/8, func() {
				for b := 0; b < batch; b++ {
					tensor.Im2ColInto(col, src, c.InC, h, w, c.Kernel, c.Stride, c.Pad)
				}
			})
			gemmNS += timeIt(budget/8, func() {
				for b := 0; b < batch; b++ {
					tensor.MatMulInto(dst, wt, col, c.OutC, k, oh*ow)
				}
			})
			elems += float64(batch * len(col))
			flops += float64(batch * 2 * c.OutC * k * oh * ow)
		}
		in = atom.OutShape(in)
	}
	if gemmNS > 0 {
		out["tensor.gemm_gflops"] = flops / gemmNS // FLOP per ns = GFLOP/s
		out["tensor.im2col_ns_per_elem"] = colNS / elems
	}
}

// probeNN times one training step of the whole model, split into forward,
// backward and optimizer.
func probeNN(out map[string]float64, budget time.Duration, m *nn.Model, x *tensor.Tensor, y []int) {
	opt := nn.NewSGD(0.05, 0.9, 1e-4)
	var fwd, bwd, sgd []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	steps := 0
	for begin := time.Now(); steps < 3 || time.Since(begin) < 3*budget; steps++ {
		t0 := time.Now()
		logits := m.Forward(x, true)
		t1 := time.Now()
		_, g := nn.SoftmaxCrossEntropy(logits, y)
		nn.ZeroGrads(m)
		m.Backward(g)
		t2 := time.Now()
		opt.Step(m.Params())
		t3 := time.Now()
		fwd, bwd, sgd = append(fwd, float64(t1.Sub(t0))), append(bwd, float64(t2.Sub(t1))), append(sgd, float64(t3.Sub(t2)))
	}
	runtime.ReadMemStats(&after)
	out["nn.fwd_ms"] = stat.Median(fwd) / 1e6
	out["nn.bwd_ms"] = stat.Median(bwd) / 1e6
	out["nn.sgd_ms"] = stat.Median(sgd) / 1e6
	out["nn.alloc_bytes_per_step"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(steps)
}

// probeAttack times the input-space PGD of the fed.wire clients on one
// batch. Its self time is what is left after the forward/backward passes it
// drives through the gradient callback.
func probeAttack(out map[string]float64, budget time.Duration, rng *rand.Rand, m *nn.Model, x *tensor.Tensor, y []int) {
	inner := attack.CEGradFn(m, y)
	var inGrad time.Duration
	grad := func(x *tensor.Tensor) (float64, *tensor.Tensor) {
		t0 := time.Now()
		l, g := inner(x)
		inGrad += time.Since(t0)
		return l, g
	}
	atk := attack.PGDConfig(8.0/255, wirePGDSteps)
	var total, self []float64
	for begin := time.Now(); len(total) < 3 || time.Since(begin) < 2*budget; {
		inGrad = 0
		t0 := time.Now()
		attack.Perturb(atk, x, grad, rng)
		d := time.Since(t0)
		total, self = append(total, float64(d)), append(self, float64(d-inGrad))
	}
	out["attack.pgd_ms_per_batch"] = stat.Median(total) / 1e6
	out["attack.pgd_self_ms"] = stat.Median(self) / 1e6
}

// probeCascade partitions the model as FedProphet does and, per module,
// times the prefix forward that recomputes the module's input feature and
// the adversarial step on it. cascade.prefix_share is the recomputed share
// of a step: prefix ÷ (prefix + step), summed over modules.
func probeCascade(out map[string]float64, budget time.Duration, rng *rand.Rand, m *nn.Model, x *tensor.Tensor, y []int) {
	cost := memmodel.MemReqModel(m, batch)
	c := cascade.Partition(m, int64(0.2*float64(cost.TotalBytes)), batch, rng)
	opt := nn.NewSGD(0.05, 0.9, 1e-4)
	var prefix, step float64
	for i := range c.Modules {
		per := budget / time.Duration(len(c.Modules))
		var z *tensor.Tensor
		prefix += timeIt(per, func() { z = c.ForwardPrefix(x, i) })
		atk := attack.FeaturePGDConfig(0.5, 2)
		if i == 0 {
			atk = attack.PGDConfig(8.0/255, 2)
		}
		step += timeIt(per, func() { c.AdversarialStep(z, y, i, i, atk, 1e-5, opt, rng) })
	}
	n := float64(len(c.Modules))
	out["cascade.prefix_fwd_ms"] = prefix / n / 1e6
	out["cascade.adv_step_ms"] = step / n / 1e6
	out["cascade.prefix_share"] = prefix / (prefix + step)
}

// probeFL times the aggregation of one round's client vectors and one final
// evaluation of the model on the workloads' test set.
func probeFL(out map[string]float64, cfg *config, budget time.Duration, rng *rand.Rand, m *nn.Model) {
	vecs := make([][]float64, cfg.size.scale.ClientsPerRound)
	weights := make([]float64, len(vecs))
	for i := range vecs {
		vecs[i] = tensor.Randn(rng, 1, nn.NumParams(m)).Data
		weights[i] = float64(10 + i)
	}
	out["fl.aggregate_ms"] = timeIt(budget, func() { fl.WeightedAverage(vecs, weights) }) / 1e6
	env := exp.NewEnv(exp.CIFAR10S(), cfg.size.scale, device.Balanced, cfg.seed)
	t0 := time.Now()
	fl.Evaluate(m, env.Test, env.Cfg, rng)
	out["fl.eval_ms"] = float64(time.Since(t0)) / 1e6
}

// probeQuant times the wire codec on the serve workloads' vector. Rates are
// megabytes of float64 payload (8 bytes a parameter) per second.
func probeQuant(out map[string]float64, budget time.Duration, sm *serveModel) {
	v := sm.params
	mb := float64(8*len(v)) / 1e6
	perSec := func(ns float64) float64 { return mb / (ns / 1e9) }
	out["quant.encode_mb_s"] = perSec(timeIt(budget, func() {
		if err := quant.EncodeStream(io.Discard, v, 8, serveChunk, nil); err != nil {
			panic(err) // a valid vector into io.Discard; unreachable
		}
	}))
	dst := make([]float64, len(v))
	for _, bits := range []int{8, 4} {
		frame := quant.Encode(quant.QuantizeChunks(v, bits, serveChunk))
		out["quant.bytes_per_param_"+strconv.Itoa(bits)] = float64(len(frame)) / float64(len(v))
		out["quant.decode"+strconv.Itoa(bits)+"_mb_s"] = perSec(timeIt(budget, func() {
			d, err := quant.NewStreamDecoder(bytes.NewReader(frame))
			if err == nil {
				err = d.DecodeAll(dst)
			}
			if err != nil {
				panic(err) // decoding a frame this probe just encoded; unreachable
			}
		}))
	}
	var idx []int
	out["quant.topk_ms"] = timeIt(budget, func() { idx = quant.TopKIndices(v, sm.topK) }) / 1e6
	var frame []byte
	out["quant.sparse_encode_ms"] = timeIt(budget, func() { frame = quant.EncodeSparse(v, idx, 4, serveChunk, nil) }) / 1e6
	out["quant.bytes_per_param_topk"] = float64(len(frame)) / float64(len(v))
}

// probeFldist drives the server's handler directly — no connection, no
// net/http — with the serve workloads' bodies. Per round: the push that
// leaves the quorum open (fldist.push_handler_us), the push that fills it
// and so folds and advances (fldist.advance_ms), the first pull of the new
// round, which builds the served body (fldist.build_ms), and a second pull
// of the same variant, which is a cache hit (fldist.pull_hit_us).
func probeFldist(out map[string]float64, cfg *config, budget time.Duration, sm *serveModel) error {
	bodies := []*pushBody{newPushBody(sm, 0, cfg.seed), newPushBody(sm, 1, cfg.seed)}
	srv := fldist.NewServer(sm.params, sm.bn, len(bodies))
	defer srv.Close()
	h := srv.Handler()
	w := newSinkWriter()
	pull, _ := http.NewRequest(http.MethodGet, directURL+"/model", nil)
	pull.Header.Set(codecHeader, "fpq1;bits=3;chunk="+strconv.Itoa(serveChunk)) // a variant no push builds
	var failed error
	timed := func(req *http.Request) float64 {
		w.reset()
		t0 := time.Now()
		h.ServeHTTP(w, req)
		d := time.Since(t0)
		if w.status() != http.StatusOK && failed == nil {
			failed = fmt.Errorf("fldist probe: %s %s: status %d", req.Method, req.URL.Path, w.status())
		}
		return float64(d)
	}
	var open, fill, build, hit []float64
	for begin := time.Now(); failed == nil && (len(open) < 3 || time.Since(begin) < 4*budget); {
		round := srv.Round()
		open = append(open, timed(bodies[0].request(directURL, round)))
		fill = append(fill, timed(bodies[1].request(directURL, round)))
		build = append(build, timed(pull))
		hit = append(hit, timed(pull))
	}
	if failed != nil {
		return failed
	}
	out["fldist.push_handler_us"] = stat.Median(open) / 1e3
	out["fldist.advance_ms"] = stat.Median(fill) / 1e6
	out["fldist.build_ms"] = stat.Median(build) / 1e6
	out["fldist.pull_hit_us"] = stat.Median(hit) / 1e3

	// WAL probe: the same push stream against a buffered server — the mode
	// that logs every admission — with the write-ahead log off and on.
	rate := func(opts ...fldist.ServerOption) (perSec float64, st fldist.Stats) {
		opts = append(opts, fldist.WithBufferedAggregation(len(bodies), 4))
		s := fldist.NewServer(sm.params, sm.bn, len(bodies), opts...)
		defer s.Close()
		hh := s.Handler()
		n := 0
		begin := time.Now()
		for ; failed == nil && (n < 6 || time.Since(begin) < 4*budget); n += len(bodies) {
			round := s.Round()
			for _, b := range bodies {
				w.reset()
				hh.ServeHTTP(w, b.request(directURL, round))
				if w.status() != http.StatusOK && failed == nil {
					failed = fmt.Errorf("WAL probe push: status %d", w.status())
				}
			}
		}
		return float64(n) / time.Since(begin).Seconds(), s.Stats()
	}
	off, _ := rate()
	dir := filepath.Join(cfg.outDir, "wal-probe-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	on, st := rate(fldist.WithWAL(dir))
	out["fldist.wal_overhead_frac"] = 1 - on/off
	if st.WAL != nil && st.WAL.Admits > 0 {
		out["fldist.wal_bytes_per_update"] = float64(st.WAL.Bytes) / float64(st.WAL.Admits)
	}
	return failed
}
