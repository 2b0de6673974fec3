package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"ranger"
	"ranger/internal/train"
)

// metric is one printed result: a value and its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// recorded is a metric as the output file keeps it: the printed value
// plus the distribution of the samples it came from.
type recorded struct {
	metric
	Samples summary `json:"samples"`
}

// bench is one run's state: its seeded inputs, time budget, tracer and
// everything it measured, counted and checked.
type bench struct {
	seed     int64
	budget   time.Duration
	cacheDir string
	workDir  string
	tr       *tracer

	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
	metrics   map[string]recorded
	counts    map[string]int64
	kernels   map[string]kernelInfo
}

// op counts one attempted operation and, when err is non-nil, its
// failure; it reports whether the operation succeeded.
func (b *bench) op(err error, what string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		b.problems = append(b.problems, fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

// ops counts n successful operations at once (inferences in a loop).
func (b *bench) ops(n int) {
	b.mu.Lock()
	b.attempted += n
	b.mu.Unlock()
}

// check counts one output check, failing it when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf(format, args...)
	}
	b.op(err, "check")
}

// record stores a metric's value and the samples behind it.
func (b *bench) record(name, unit string, value float64, samples []float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.metrics[name] = recorded{metric{finite(value), unit}, summarize(samples)}
}

// recordMedian records the median of samples as the metric's value.
func (b *bench) recordMedian(name, unit string, samples []float64) {
	b.record(name, unit, summarize(samples).Median, samples)
}

// recordTail records the tail percentile of samples (see summary).
func (b *bench) recordTail(name, unit string, samples []float64) {
	s := summarize(samples)
	if s.TailPct == 0 {
		b.op(fmt.Errorf("%d samples are too few for a tail", len(samples)), name)
	}
	b.record(name, unit, s.Tail, samples)
}

func (b *bench) count(name string, n int64) {
	b.mu.Lock()
	b.counts[name] += n
	b.mu.Unlock()
}

// share returns the deadline for a phase given its share of the run's
// time budget.
func (b *bench) share(f float64) time.Time {
	return time.Now().Add(time.Duration(f * float64(b.budget)))
}

// freshZoo returns a zoo over the warm weight cache that has loaded
// nothing yet, so each set-up pays the load a new process pays.
func (b *bench) freshZoo() *train.Zoo {
	z := train.NewZoo(b.cacheDir)
	z.Quiet = true
	return z
}

// setupReps is how many times every workload repeats its set-up; the
// median is setup_s.
const setupReps = 5

// timeSetup runs fn setupReps times, each on a fresh zoo inside a
// bench.setup span (the parent of fn's spans, sharing its request id),
// and records the median as setup_s. Set-up runs single-threaded for
// the reason clean inference does (see singleThreaded). The last
// repetition's state is the one the run uses.
func (b *bench) timeSetup(fn func(zoo *train.Zoo, req string, parent int) error) error {
	defer singleThreaded()()
	var secs []float64
	for i := 0; i < setupReps; i++ {
		zoo := b.freshZoo()
		req := fmt.Sprintf("setup-%d", i)
		t0 := time.Now()
		err := b.tr.do("bench.setup", req, -1, func(id int) error { return fn(zoo, req, id) })
		if !b.op(err, "setup") {
			return err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	b.recordMedian("setup_s", "s", secs)
	return nil
}

// recordRSS records the process's peak resident set size.
func (b *bench) recordRSS() {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); !b.op(err, "getrusage") {
		return
	}
	mb := float64(ru.Maxrss) / 1024 // Linux reports KiB
	b.record("peak_rss_mb", "MB", mb, []float64{mb})
}

// cleanInference times clean inferences of an unprotected and a
// protected model. Workloads take a few pairs after every round, the
// two models interleaved, so the samples span the whole run and machine
// drift hits both models alike.
type cleanInference struct {
	span       string
	inputs     []ranger.Feeds
	orig, prot func(ranger.Feeds) (*ranger.Tensor, error)
	// perBurst makes the reported median latencies medians over sample
	// calls of each call's mean latency. A shared host runs fast and
	// slow in spells of tens to hundreds of milliseconds; an inference
	// much shorter than that lands in one spell, so single latencies
	// split into two modes whose balance shifts from run to run, and
	// their median jumps between the modes. The mean of a long burst
	// spans several spells instead.
	perBurst bool
	o, p     []float64 // latencies, microseconds
	bo, bp   []float64 // per sample call: mean latencies, microseconds
}

// sample times pairs more inference pairs. It collects the heap first,
// so garbage the workload's campaigns left is not swept on the
// inference's time, and runs them single-threaded (see singleThreaded).
func (ci *cleanInference) sample(b *bench, pairs int, req string, parent int) error {
	runtime.GC()
	defer singleThreaded()()
	var obusy, pbusy float64
	for i := 0; i < pairs; i++ {
		f := ci.inputs[len(ci.o)%len(ci.inputs)]
		for k, run := range []func(ranger.Feeds) (*ranger.Tensor, error){ci.orig, ci.prot} {
			t0 := time.Now()
			id := b.tr.begin(ci.span, req, parent)
			_, err := run(f)
			b.tr.end(id)
			d := us(time.Since(t0))
			if !b.op(err, ci.span) {
				return err
			}
			if k == 0 {
				ci.o = append(ci.o, d)
				obusy += d
			} else {
				ci.p = append(ci.p, d)
				pbusy += d
			}
		}
	}
	ci.bo, ci.bp = append(ci.bo, obusy/float64(pairs)), append(ci.bp, pbusy/float64(pairs))
	return nil
}

// singleThreaded sets the process to one kernel worker and returns the
// function that restores the previous count. Clean inference is timed
// on one thread: split across two, every plan step ends in a barrier,
// so a core slowed by a neighbour on a shared host stretches every
// step, while campaigns shard whole trials and barely notice.
func singleThreaded() (restore func()) {
	prev := ranger.WorkerCount()
	ranger.SetWorkers(1)
	return func() { ranger.SetWorkers(prev) }
}

// tailSamples is about how many single latencies a clean-inference tail
// is taken over, so it sits near p90: with many more, the tail climbs to
// where a busy neighbour on a shared host, not the program, sets it.
const tailSamples = 100

// recordInference records the protected model's clean latency (median,
// per burst when ci.perBurst is set, and tail over single latencies)
// and the protected ÷ unprotected median latency — the paper's overhead
// claim — and, when throughput is set, the protected model's
// closed-loop inferences per second (median over sample calls).
func (b *bench) recordInference(ci *cleanInference, throughput bool) {
	o, p, tail := ci.o, ci.p, ci.p
	if ci.perBurst {
		o, p = ci.bo, ci.bp
		// Long bursts hold far more single latencies than a tail is
		// taken over (see tailSamples); use an even subsample.
		tail = nil
		for i := 0; i < len(ci.p); i += max(1, len(ci.p)/tailSamples) {
			tail = append(tail, ci.p[i])
		}
	}
	b.recordMedian("infer_p50_us", "us", p)
	b.recordTail("infer_tail_us", "us", tail)
	ratio := summarize(p).Median / summarize(o).Median
	b.record("ranger_latency_ratio", "ratio", ratio, []float64{ratio})
	if throughput {
		rates := make([]float64, len(ci.bp))
		for i, us := range ci.bp {
			rates[i] = 1e6 / us
		}
		b.recordMedian("inferences_per_s", "1/s", rates)
	}
}

// recordRounds records a workload's rounds — each round is one job, its
// campaigns run back to back — as job latency (median and tail) and as
// throughput: the median over rounds of each round's rate, so a rare
// round that draws costly faults does not swing the result. work maps
// each throughput metric to its per-round amounts.
func (b *bench) recordRounds(secs []float64, work map[string][]float64) {
	b.recordMedian("job_latency_p50_s", "s", secs)
	b.recordTail("job_latency_tail_s", "s", secs)
	work["jobs_per_s"] = make([]float64, len(secs))
	for i := range secs {
		work["jobs_per_s"][i] = 1
	}
	for name, amounts := range work {
		rates := make([]float64, len(secs))
		for i, s := range secs {
			rates[i] = amounts[i] / s
		}
		b.recordMedian(name, "1/s", rates)
	}
}

// sdcReduction is the original ÷ protected SDC rate.
func sdcReduction(origSDC, origN, protSDC, protN int) (float64, error) {
	if origN == 0 || protN == 0 || protSDC == 0 {
		return 0, fmt.Errorf("sdc reduction undefined: original %d/%d, protected %d/%d", origSDC, origN, protSDC, protN)
	}
	return (float64(origSDC) / float64(origN)) / (float64(protSDC) / float64(protN)), nil
}

// e2eMetrics are the end-to-end metrics every untraced run prints, in
// BENCHMARK.json order.
var e2eMetrics = []string{
	"setup_s", "trials_per_s", "adaptive_trials_per_s", "inferences_per_s",
	"infer_p50_us", "infer_tail_us", "ranger_latency_ratio", "sdc_reduction",
	"jobs_per_s", "job_latency_p50_s", "job_latency_tail_s", "peak_rss_mb",
}

// finite replaces NaN and infinities (from a failed phase) with 0 so
// the result line stays valid JSON; such a run has already failed.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
