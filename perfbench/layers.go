package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"ranger"
	"ranger/internal/inject"
	"ranger/internal/ops"
	"ranger/internal/service"
	"ranger/internal/tensor"
)

// layerMetric is one per-layer metric with the end-to-end metric (and
// workload) it should move — the map later changes cite.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Moves  string `json:"moves"`
}

// layerMetrics lists the traced run's per-layer metrics. Counts repeat
// exactly for a seed; a count that is zero on a healthy run (failures,
// rejections, DUEs) is written to the output file but is not a metric.
var layerMetrics = []layerMetric{
	{"train.zoo_load_ms", "ms", "lower", "setup_s (all)"},
	{"core.profile_ms", "ms", "lower", "setup_s (all); job_latency_p50_s (rangerd)"},
	{"core.protect_ms", "ms", "lower", "setup_s (all); job_latency_p50_s (rangerd)"},
	{"core.calibrate_ms", "ms", "lower", "setup_s (persistent); job_latency_p50_s (rangerd)"},
	{"graph.compile_ms", "ms", "lower", "setup_s (all); job_latency_p50_s (rangerd)"},
	{"graph.quantize_ms", "ms", "lower", "setup_s (persistent); job_latency_p50_s (rangerd)"},
	{"graph.run_us", "us", "lower", "infer_p50_us (fullspace)"},
	{"graph.qrun_us", "us", "lower", "infer_p50_us (persistent)"},
	{"graph.checkpoint_us", "us", "lower", "trials_per_s (rangerd)"},
	{"graph.runfrom_us.early", "us", "lower", "trials_per_s (fullspace)"},
	{"graph.runfrom_us.mid", "us", "lower", "trials_per_s (fullspace)"},
	{"graph.runfrom_us.late", "us", "lower", "trials_per_s (late)"},
	{"graph.lane_runfrom_us.b1", "us", "lower", "trials_per_s (late)"},
	{"graph.lane_runfrom_us.b8", "us", "lower", "trials_per_s (late)"},
	{"tensor.gemm_gflops.g1", "GFLOP/s", "higher", "infer_p50_us, trials_per_s (fullspace); none on late"},
	{"tensor.gemm_gflops.g2", "GFLOP/s", "higher", "infer_p50_us, trials_per_s (fullspace); none on late"},
	{"tensor.gemm_gflops.g3", "GFLOP/s", "higher", "infer_p50_us, trials_per_s (fullspace); none on late"},
	{"tensor.qgemm_gops.q1", "GOP/s", "higher", "inferences_per_s, infer_p50_us (persistent)"},
	{"tensor.qgemm_gops.q2", "GOP/s", "higher", "inferences_per_s, infer_p50_us (persistent)"},
	{"inject.trial_us.full", "us", "lower", "trials_per_s (fullspace)"},
	{"inject.trial_us.late", "us", "lower", "trials_per_s (late)"},
	{"inject.slice_fixed_ms", "ms", "lower", "jobs_per_s (rangerd)"},
	{"inject.sequence_us.weight_fp32", "us", "lower", "inferences_per_s (persistent)"},
	{"inject.sequence_us.weight_int8", "us", "lower", "inferences_per_s (persistent)"},
	{"inject.sequence_us.quantparam_int8", "us", "lower", "inferences_per_s (persistent)"},
	{"inject.adaptive_round_ms", "ms", "lower", "adaptive_trials_per_s (late)"},
	{"service.submit_us", "us", "lower", "job_latency_p50_s, job_latency_tail_s (rangerd)"},
	{"service.queue_wait_ms", "ms", "lower", "job_latency_p50_s, job_latency_tail_s (rangerd)"},
	{"service.run_ms", "ms", "lower", "jobs_per_s (rangerd)"},
	{"service.append_us", "us", "lower", "jobs_per_s (rangerd)"},
	{"service.verify_ms", "ms", "lower", "none: a check cost"},
	{"inject.trials", "count", "higher", "exact per seed"},
	{"inject.sdc.original", "count", "lower", "exact per seed; sdc_reduction"},
	{"inject.sdc.ranger", "count", "lower", "exact per seed; sdc_reduction"},
	{"inject.adaptive_trials", "count", "higher", "exact per seed"},
	{"inject.detections", "count", "higher", "exact per seed"},
	{"inject.repairs", "count", "higher", "exact per seed"},
	{"inject.repair_ok", "count", "higher", "exact per seed"},
	{"service.jobs_completed", "count", "higher", "exact per seed"},
	{"service.blocks", "count", "higher", "exact per seed"},
	{"trace.span_ns", "ns", "lower", "tracing cost per span"},
	{"trace.overhead_ratio", "ratio", "lower", "traced ÷ untraced wall time of the workload"},
}

// zooModels are the models the benchmark uses, warmed before timing.
var zooModels = []string{"vgg11", "dave", "lenet"}

// layerSuite runs fixed, seeded work through every layer, each call in
// a span, and derives the per-layer metrics from the spans. The work is
// the same on every workload, so per-layer numbers compare across them.
func layerSuite(b *bench) error {
	rng := rngFor(b.seed, "layers")
	t := b.tr

	// Set-up layers: fresh zoo loads, profiling, protection,
	// calibration, campaign-plan compilation and quantization.
	var models map[string]*layerModel
	for rep := 0; rep < 3; rep++ {
		req := fmt.Sprintf("setup-%d", rep)
		zoo := b.freshZoo()
		models = make(map[string]*layerModel)
		each := func(span string, names []string, fn func(*layerModel) error) error {
			return t.do(span, req, -1, func(int) error {
				for _, n := range names {
					if err := fn(models[n]); err != nil {
						return fmt.Errorf("%s %s: %w", span, n, err)
					}
				}
				return nil
			})
		}
		err := t.do("train.zoo_load", req, -1, func(int) error {
			for _, n := range zooModels {
				m, err := zoo.Get(n)
				if err != nil {
					return err
				}
				models[n] = &layerModel{orig: m}
			}
			return nil
		})
		if err == nil {
			err = each("core.profile", zooModels, func(m *layerModel) (err error) { m.bounds, err = ranger.Profile(m.orig, profileSamples); return })
		}
		if err == nil {
			err = each("core.protect", zooModels, func(m *layerModel) (err error) {
				m.prot, _, err = ranger.Protect(m.orig, m.bounds, ranger.ProtectOptions{})
				return
			})
		}
		if err == nil {
			err = each("core.calibrate", []string{"dave", "lenet"}, func(m *layerModel) (err error) { m.calib, err = ranger.Calibrate(m.prot, profileSamples); return })
		}
		if err == nil {
			err = each("graph.compile", zooModels, func(m *layerModel) (err error) {
				m.plan, err = ranger.CompileGraphWith(m.prot.Graph, ranger.CompileOptions{Observe: inject.CorruptibleNodes(m.prot, nil, nil)}, m.prot.Output)
				return
			})
		}
		if err == nil {
			err = each("graph.quantize", []string{"dave", "lenet"}, func(m *layerModel) error { _, err := ranger.QuantizeGraphPlan(m.plan, m.calib); return err })
		}
		if !b.op(err, "layer set-up") {
			return err
		}
	}
	b.spanMetric("train.zoo_load_ms", "train.zoo_load", 1)
	b.spanMetric("core.profile_ms", "core.profile", 1)
	b.spanMetric("core.protect_ms", "core.protect", 1)
	b.spanMetric("core.calibrate_ms", "core.calibrate", 1)
	b.spanMetric("graph.compile_ms", "graph.compile", 1)
	b.spanMetric("graph.quantize_ms", "graph.quantize", 1)

	inputs := make(map[string]ranger.Feeds)
	for _, n := range zooModels {
		in, _, err := pickInputs(models[n].orig, 1, rngFor(b.seed, n+"-layer-input"))
		if !b.op(err, "layer inputs") {
			return err
		}
		inputs[n] = in[0]
	}

	// Plan execution on the protected campaign plans.
	vgg, dave, lenet := models["vgg11"], models["dave"], models["lenet"]
	if err := graphLayer(b, vgg.plan, inputs["vgg11"]); err != nil {
		return err
	}
	qp, err := ranger.QuantizeGraphPlan(dave.plan, dave.calib)
	if !b.op(err, "quantize dave") {
		return err
	}
	qst := qp.NewState()
	restore := singleThreaded() // as the workloads time clean inference
	for i := 0; i < 60; i++ {
		err := t.do("graph.qrun", "dave", -1, func(int) error { _, err := qp.Run(qst, inputs["dave"]); return err })
		if !b.op(err, "qrun") {
			restore()
			return err
		}
	}
	restore()
	lst := lenet.plan.NewState()
	for i := 0; i < 100; i++ {
		err := t.do("graph.checkpoint", "lenet", -1, func(int) error { _, err := lenet.plan.Checkpoint(lst, inputs["lenet"]); return err })
		if !b.op(err, "checkpoint") {
			return err
		}
	}
	b.spanMetric("graph.run_us", "graph.run", 1)
	b.spanMetric("graph.qrun_us", "graph.qrun", 1)
	b.spanMetric("graph.checkpoint_us", "graph.checkpoint", 1)
	for _, at := range []string{"early", "mid", "late"} {
		b.spanMetric("graph.runfrom_us."+at, "graph.runfrom."+at, 1)
	}
	b.spanMetric("graph.lane_runfrom_us.b1", "graph.lane_runfrom.b1", 1)
	b.spanMetric("graph.lane_runfrom_us.b8", "graph.lane_runfrom.b8", 8)

	// Kernels at the dominant conv GEMM shapes of vgg11 (fp32) and dave
	// (int8).
	shapes, err := convShapes(vgg.orig, inputs["vgg11"], 3)
	if !b.op(err, "vgg11 shapes") {
		return err
	}
	for i, s := range shapes {
		gemmLayer(b, fmt.Sprintf("tensor.gemm_gflops.g%d", i+1), s, rng)
	}
	shapes, err = convShapes(dave.orig, inputs["dave"], 2)
	if !b.op(err, "dave shapes") {
		return err
	}
	for i, s := range shapes {
		qgemmLayer(b, fmt.Sprintf("tensor.qgemm_gops.q%d", i+1), s, rng)
	}

	if err := injectLayer(b, vgg.orig, vgg.prot, dave, lenet.prot, inputs); err != nil {
		return err
	}
	return serviceLayer(b)
}

// graphLayer times Plan.Run, Plan.RunFrom from the early, mid and late
// boundaries, and LaneReplay.RunFrom at the late boundary.
func graphLayer(b *bench, plan *ranger.Plan, in ranger.Feeds) error {
	t := b.tr
	st := plan.NewState()
	restore := singleThreaded() // as the workloads time clean inference
	for i := 0; i < 60; i++ {
		err := t.do("graph.run", "vgg11", -1, func(int) error { _, err := plan.Run(st, in); return err })
		if !b.op(err, "run") {
			restore()
			return err
		}
	}
	restore()
	ck, err := plan.Checkpoint(st, in)
	if !b.op(err, "checkpoint") {
		return err
	}
	steps := plan.Steps()
	bounds := map[string]int{"early": 0, "mid": steps / 3, "late": 2 * steps / 3}
	for _, at := range []string{"early", "mid", "late"} {
		for i := 0; i < 40; i++ {
			err := t.do("graph.runfrom."+at, "vgg11", -1, func(int) error { _, err := plan.RunFrom(st, ck, bounds[at], nil); return err })
			if !b.op(err, "runfrom") {
				return err
			}
		}
	}
	for _, lanes := range []int{1, 8} {
		lr, err := plan.NewLaneReplay(ck, lanes)
		if !b.op(err, "lane replay") {
			return err
		}
		lst := plan.NewState()
		name := fmt.Sprintf("graph.lane_runfrom.b%d", lanes)
		for i := 0; i < 40; i++ {
			err := t.do(name, "vgg11", -1, func(int) error { _, err := lr.RunFrom(lst, bounds["late"], nil); return err })
			if !b.op(err, "lane runfrom") {
				return err
			}
		}
	}
	return nil
}

// gemmShape is one im2col GEMM: (M×K)·(K×N).
type gemmShape struct{ M, K, N int }

func (s gemmShape) String() string { return fmt.Sprintf("%dx%dx%d", s.M, s.K, s.N) }
func (s gemmShape) ops() float64   { return 2 * float64(s.M) * float64(s.K) * float64(s.N) }

// convShapes returns a model's top conv GEMM shapes by operation count
// at batch 1, distinct shapes only.
func convShapes(m *ranger.Model, in ranger.Feeds, top int) ([]gemmShape, error) {
	shapes := make(map[string][]int)
	e := ranger.Executor{Hook: func(n *ranger.GraphNode, out *ranger.Tensor) *ranger.Tensor {
		shapes[n.Name()] = out.Shape()
		return nil
	}}
	if _, err := e.Run(m.Graph, in, m.Output); err != nil {
		return nil, err
	}
	seen := make(map[gemmShape]bool)
	var out []gemmShape
	for _, n := range m.Graph.Nodes() {
		conv, ok := n.Op().(*ops.Conv2DOp)
		if !ok {
			continue
		}
		x, w := shapes[n.Inputs()[0].Name()], shapes[n.Inputs()[1].Name()]
		if len(x) != 4 || len(w) != 4 {
			return nil, fmt.Errorf("conv %s: input %v, weight %v", n.Name(), x, w)
		}
		oh, ow := conv.Geom.OutDims(x[1], x[2])
		s := gemmShape{M: oh * ow, K: w[0] * w[1] * w[2], N: w[3]}
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ops() > out[j].ops() })
	if len(out) > top {
		out = out[:top]
	}
	if len(out) < top {
		return nil, fmt.Errorf("%s has %d conv shapes, want %d", m.Name, len(out), top)
	}
	return out, nil
}

// kernelReps is the minimum repetitions and time per kernel shape.
const (
	kernelReps = 20
	kernelTime = 150 * time.Millisecond
)

// gemmLayer times MatMulInto at one shape on post-ReLU-like operands
// (about half the activations zero, which the kernel skips) and records
// GFLOP/s plus the shape's operation count and bytes moved.
func gemmLayer(b *bench, metric string, s gemmShape, rng *rand.Rand) {
	a := make([]float32, s.M*s.K)
	for i := range a {
		a[i] = max(0, float32(rng.NormFloat64()))
	}
	w := make([]float32, s.K*s.N)
	for i := range w {
		w[i] = float32(rng.NormFloat64()) * 0.05
	}
	at, err1 := tensor.FromSlice(a, s.M, s.K)
	wt, err2 := tensor.FromSlice(w, s.K, s.N)
	dst := tensor.New(s.M, s.N)
	if !b.op(firstErr(err1, err2), metric) {
		return
	}
	span := "tensor.gemm." + s.String()
	t0 := time.Now()
	for i := 0; i < kernelReps || time.Since(t0) < kernelTime; i++ {
		err := b.tr.do(span, metric, -1, func(int) error { _, err := tensor.MatMulInto(dst, at, wt); return err })
		if !b.op(err, metric) {
			return
		}
	}
	kernelMetric(b, metric, "GFLOP/s", span, s, 4*(s.M*s.K+s.K*s.N+s.M*s.N))
}

// qgemmLayer is gemmLayer for the int8 kernel QMatMul.
func qgemmLayer(b *bench, metric string, s gemmShape, rng *rand.Rand) {
	a := make([]int8, s.M*s.K)
	for i := range a {
		if rng.Intn(2) == 0 {
			a[i] = int8(rng.Intn(127))
		}
	}
	w := make([]int8, s.K*s.N)
	for i := range w {
		w[i] = int8(rng.Intn(255) - 127)
	}
	out := make([]int8, s.M*s.N)
	requant := func(acc []int32, row []int8) {
		for j, v := range acc {
			row[j] = int8(min(127, max(-128, v>>12)))
		}
	}
	span := "tensor.qgemm." + s.String()
	t0 := time.Now()
	for i := 0; i < kernelReps || time.Since(t0) < kernelTime; i++ {
		err := b.tr.do(span, metric, -1, func(int) error { return tensor.QMatMul(a, 0, s.M, s.K, w, s.N, out, requant) })
		if !b.op(err, metric) {
			return
		}
	}
	kernelMetric(b, metric, "GOP/s", span, s, s.M*s.K+s.K*s.N+s.M*s.N)
}

// kernelMetric records a kernel's rate at its median call time, and
// counts its shape, operations and bytes moved.
func kernelMetric(b *bench, metric, unit, span string, s gemmShape, bytes int) {
	var xs []float64
	for _, d := range durations(b.tr.snapshot(), span) {
		xs = append(xs, s.ops()/float64(d)) // ops per ns = G ops per s
	}
	b.recordMedian(metric, unit, xs)
	b.mu.Lock()
	b.kernels[metric] = kernelInfo{Shape: s.String(), Ops: int64(s.ops()), Bytes: int64(bytes)}
	b.mu.Unlock()
}

// kernelInfo describes the shape behind a kernel metric.
type kernelInfo struct {
	Shape string `json:"shape"`
	Ops   int64  `json:"ops"`
	Bytes int64  `json:"bytes_moved"`
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// layerModel is one zoo model as the layer suite prepares it: trained,
// profiled, protected, calibrated (dave and lenet) and compiled to a
// campaign plan.
type layerModel struct {
	orig, prot *ranger.Model
	bounds     ranger.Bounds
	calib      ranger.Calibration
	plan       *ranger.Plan
}

// injectLayer times campaign trials (full and late fault space), a
// one-trial slice, persistent sequences per surface and adaptive
// rounds, and counts their outcomes.
func injectLayer(b *bench, vggOrig, vggProt *ranger.Model, dave *layerModel, lenetProt *ranger.Model, inputs map[string]ranger.Feeds) error {
	t := b.tr
	ctx := context.Background()
	run := func(span string, c *ranger.Campaign, in []ranger.Feeds) (ranger.Outcome, error) {
		var out ranger.Outcome
		err := t.do(span, span, -1, func(int) (err error) { out, err = c.Run(ctx, in); return })
		if b.op(err, span) {
			b.count("inject.trials", int64(out.Trials))
		}
		return out, err
	}
	vin := []ranger.Feeds{inputs["vgg11"]}
	for rep := 0; rep < 3; rep++ {
		seed := seedAt(b.seed, "layer-trial", rep)
		if _, err := run("inject.trials.full", &ranger.Campaign{Model: vggProt, Trials: 128, Seed: seed}, vin); err != nil {
			return err
		}
		if _, err := run("inject.trials.late", &ranger.Campaign{Model: vggProt, Trials: 4096, Seed: seed, TargetNodes: lateNodes(vggProt)}, vin); err != nil {
			return err
		}
	}
	b.spanMetric("inject.trial_us.full", "inject.trials.full", 128)
	b.spanMetric("inject.trial_us.late", "inject.trials.late", 4096)

	seed := seedAt(b.seed, "layer-sdc", 0)
	for k, m := range []*ranger.Model{vggOrig, vggProt} {
		out, err := run("inject.sdc", &ranger.Campaign{Model: m, Trials: 4096, Seed: seed, TargetNodes: lateNodes(m)}, vin)
		if err != nil {
			return err
		}
		b.count([]string{"inject.sdc.original", "inject.sdc.ranger"}[k], int64(sdcCount(m, out)))
	}

	c := &ranger.Campaign{Model: lenetProt, Trials: 64, Seed: seed}
	for i := 0; i < 10; i++ {
		err := t.do("inject.slice_fixed", "lenet", -1, func(int) error {
			out, err := c.RunSlice(ctx, []ranger.Feeds{inputs["lenet"]}, int64(i), int64(i+1))
			b.count("inject.trials", int64(out.Trials))
			return err
		})
		if !b.op(err, "slice") {
			return err
		}
	}
	b.spanMetric("inject.slice_fixed_ms", "inject.slice_fixed", 1)

	st := &daveState{prot: dave.prot, calib: dave.calib, maxima: maxima(dave.bounds)}
	din := []ranger.Feeds{inputs["dave"]}
	for _, r := range surfaceRuns {
		n := map[string]int{"weight_fp32": 128, "weight_int8": 48, "quantparam_int8": 24}[r.name]
		for rep := 0; rep < 2; rep++ {
			c := st.persistentCampaign(r.surface, r.int8, n, seedAt(b.seed, "layer-"+r.name, rep))
			if _, err := b.runPersistentCampaign(c, din, "inject.sequences."+r.name, -1); err != nil {
				return err
			}
		}
		var xs []float64
		for _, s := range t.snapshot() {
			if s.Name == "inject.run_persistent" && s.Request == "inject.sequences."+r.name {
				xs = append(xs, us(s.dur())/float64(n))
			}
		}
		b.recordMedian("inject.sequence_us."+r.name, "us", xs)
	}

	ac := &ranger.Campaign{Model: vggProt, Trials: 4096, Seed: seed, Adaptive: ranger.AdaptiveStratified, TargetNodes: lateNodes(vggProt)}
	n, err := b.adaptive(ac, vin, "layer-adaptive", -1)
	if err != nil {
		return err
	}
	b.count("inject.adaptive_trials", int64(n))
	b.spanMetric("inject.adaptive_round_ms", "inject.adaptive_round", 1)
	return nil
}

// spanMetric records a per-layer timing metric as the median duration
// of the named spans in the metric's unit, divided by per (the units of
// work each span covers).
func (b *bench) spanMetric(metric, span string, per float64) {
	var unit string
	for _, lm := range layerMetrics {
		if lm.Name == metric {
			unit = lm.Unit
		}
	}
	scale := map[string]float64{"us": 1e3, "ms": 1e6}[unit]
	var xs []float64
	for _, d := range durations(b.tr.snapshot(), span) {
		xs = append(xs, float64(d)/scale/per)
	}
	b.recordMedian(metric, unit, xs)
}

// layerJobs is how many rangerd jobs the layer suite runs.
const layerJobs = 8

// serviceLayer runs a fixed batch of the rangerd job mix through a
// fresh service with two clients, then times durable block appends.
func serviceLayer(b *bench) error {
	t := b.tr
	dir := filepath.Join(b.workDir, "layers-rangerd")
	if err := os.RemoveAll(dir); !b.op(err, "store dir") {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := ranger.OpenJobStore(dir)
	if !b.op(err, "open store") {
		return err
	}
	svc, err := ranger.NewService(ranger.ServiceConfig{Store: store, JobWorkers: rangerdJobWorkers, CampaignWorkers: 1, Logf: func(string, ...any) {}})
	if !b.op(err, "new service") {
		return err
	}
	svc.Start()
	results, _ := b.closedLoop(svc, jobMix(b.seed, layerJobs), new(atomic.Int64), time.Now().Add(time.Hour))
	svc.Drain()
	b.check(len(results) == layerJobs, "%d of %d layer-suite jobs completed", len(results), layerJobs)
	var block *ranger.JobBlock
	for _, r := range results {
		b.verifyJob(store, r)
		if block == nil && r.man.Spec.Adaptive == "" && !r.man.Spec.Persistent() {
			blocks, err := store.Blocks(r.man.ID)
			if b.op(err, "blocks") && len(blocks) > 0 {
				block = &blocks[0]
			}
		}
	}
	m := svc.Metrics
	b.count("service.jobs_completed", int64(m.Counter(service.MetricJobsCompleted)))
	b.count("service.jobs_failed", int64(m.Counter(service.MetricJobsFailed)))
	b.count("service.rejected", int64(m.Counter(service.MetricJobsRejected)))
	b.count("service.blocks", int64(m.Counter(service.MetricBlocksPersisted)))
	if block == nil {
		err := fmt.Errorf("no uniform job block to append")
		b.op(err, "append")
		return err
	}
	man, err := service.NewManifest(jobKinds[0], time.Now())
	if !b.op(err, "manifest") {
		return err
	}
	if err := store.Create(man, ranger.JobStatus{State: ranger.JobQueued, LastHash: man.SpecHash}); !b.op(err, "create") {
		return err
	}
	for i := 0; i < 30; i++ {
		err := t.do("service.append", man.ID, -1, func(int) error { return store.Append(man.ID, *block) })
		if !b.op(err, "append") {
			return err
		}
	}
	b.spanMetric("service.submit_us", "service.submit", 1)
	b.spanMetric("service.queue_wait_ms", "service.queue_wait", 1)
	b.spanMetric("service.run_ms", "service.run", 1)
	b.spanMetric("service.append_us", "service.append", 1)
	b.spanMetric("service.verify_ms", "service.verify", 1)
	return nil
}
