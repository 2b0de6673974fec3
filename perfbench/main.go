// Command perfbench is the repository's benchmark: it runs one seeded
// workload through the ranger facade and prints its end-to-end metrics
// (or, traced, its per-layer metrics) with a final JSON result line.
//
//	bash perfbench/run.sh --workload fullspace --seed 1 --seconds 15 --trace 0
//
// run.sh builds this command from the checkout's source and points the
// model zoo's weight cache inside the checkout; the first run trains
// vgg11, dave and lenet into it. Workloads, the metric map and their
// rationale are in BENCHMARK.json and README.md beside this file.
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

	"ranger"
)

// workloads maps each workload name to its run function.
var workloads = map[string]func(*bench) error{
	"fullspace":  func(b *bench) error { return runTransient(b, fullspaceCfg) },
	"late":       func(b *bench) error { return runTransient(b, lateCfg) },
	"persistent": runPersistent,
	"rangerd":    runRangerd,
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// runLimit is how long a run may take once the zoo is warm.
const runLimit = 160 * time.Second

// result is the final line every run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: fullspace, late, persistent or rangerd")
	seed := fs.Int64("seed", 1, "seed all inputs derive from")
	seconds := fs.Float64("seconds", 15, "measurement time budget")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer suite instead of the end-to-end measurement")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload {fullspace|late|persistent|rangerd}, --trace {0|1} and --seconds > 0\n")
		return 2
	}
	cache := os.Getenv("RANGER_CACHE")
	if cache == "" {
		fmt.Fprintln(stderr, "perfbench: RANGER_CACHE must name the zoo weight cache (run.sh sets it)")
		return 2
	}
	workDir := filepath.Join(*out, "work")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	workers := min(2, runtime.NumCPU())
	ranger.SetWorkers(workers)

	// Training is a one-time cost per cache; it stays out of every
	// timing, set-up included.
	for _, name := range zooModels {
		if _, err := ranger.LoadModel(name); err != nil {
			fmt.Fprintf(stderr, "perfbench: warm zoo: %v\n", err)
			return 1
		}
	}

	// A stuck run must still end: a benchmark run has 180 s to finish.
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "perfbench: %s seed %d still running after %v\n", *workload, *seed, runLimit)
		os.Exit(1)
	})
	defer watchdog.Stop()

	newBench := func(tr *tracer) *bench {
		return &bench{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
			cacheDir: cache, workDir: workDir, tr: tr,
			metrics: make(map[string]recorded), counts: make(map[string]int64), kernels: make(map[string]kernelInfo)}
	}
	file := map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"fingerprint": machineFingerprint(workers),
	}
	var printed map[string]recorded
	var attempted, failed int
	var problems []string
	if *trace == 0 {
		b := newBench(nil)
		printed = measure(b, run, file, stderr)
		attempted, failed, problems = b.attempted, b.failed, b.problems
	} else {
		suite, wb := newBench(newTracer()), newBench(newTracer())
		printed = measureTraced(suite, wb, run, file, stderr)
		if ratio, ok := tracedVsUntraced(*out, *workload, *seed, *seconds, wb); ok {
			file["untraced_over_traced_trials_per_s"] = ratio
		}
		attempted, failed = suite.attempted+wb.attempted, suite.failed+wb.failed
		problems = append(suite.problems, wb.problems...)
		spans := map[string]any{"fingerprint": file["fingerprint"], "layer_suite": suite.tr.snapshot(), "workload": wb.tr.snapshot()}
		if err := writeJSON(filepath.Join(*out, fmt.Sprintf("%s-s%d-spans.json", *workload, *seed)), spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			failed++
		}
	}
	file["attempted"], file["failed"], file["problems"] = attempted, failed, problems
	if err := writeJSON(filepath.Join(*out, fmt.Sprintf("%s-s%d-t%d.json", *workload, *seed, *trace)), file); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		failed++
	}

	for _, p := range problems {
		fmt.Fprintf(stderr, "perfbench: FAILED %s\n", p)
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric)}
	for _, name := range sortedKeys(printed) {
		r := printed[name]
		r.Value = finite(r.Value)
		res.Metrics[name] = r.metric
		s := r.Samples
		line := fmt.Sprintf("%-36s %14.6g %-8s", name, r.Value, r.Unit)
		if s.N > 1 {
			line += fmt.Sprintf(" median %.6g  q1 %.6g  q3 %.6g  n %d", s.Median, s.Q1, s.Q3, s.N)
			if s.TailPct > 0 {
				line += fmt.Sprintf("  p%g %.6g", s.TailPct, s.Tail)
			}
		}
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "error_rate %d/%d\n", failed, attempted)
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	if failed > 0 {
		return 1
	}
	return 0
}

// measure runs the workload untraced and returns its end-to-end
// metrics, adding everything it recorded to the result file.
func measure(b *bench, run func(*bench) error, file map[string]any, stderr io.Writer) map[string]recorded {
	if err := run(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
	}
	b.recordRSS()
	printed := make(map[string]recorded)
	for _, name := range e2eMetrics {
		r, ok := b.metrics[name]
		if !ok {
			b.op(fmt.Errorf("not measured"), name)
		}
		printed[name] = r
	}
	file["metrics"], file["counts"] = b.metrics, b.counts
	return printed
}

// measureTraced runs the layer suite on suite and then the workload,
// traced, on wb, and returns the per-layer metrics. The result file
// gets the suite's metrics and counts, the kernel shapes, the metric
// map, and the traced workload's metrics and per-span-name times.
func measureTraced(suite, wb *bench, run func(*bench) error, file map[string]any, stderr io.Writer) map[string]recorded {
	if err := layerSuite(suite); err != nil {
		fmt.Fprintf(stderr, "perfbench: layer suite: %v\n", err)
	}
	t0 := time.Now()
	if err := run(wb); err != nil {
		fmt.Fprintf(stderr, "perfbench: traced workload: %v\n", err)
	}
	wall := time.Since(t0)
	spanNS := spanCost()
	nspans := len(wb.tr.snapshot())
	suite.record("trace.span_ns", "ns", spanNS, nil)
	suite.record("trace.overhead_ratio", "ratio", float64(wall)/(float64(wall)-float64(nspans)*spanNS), nil)
	printed := make(map[string]recorded)
	for _, lm := range layerMetrics {
		if lm.Unit == "count" {
			suite.record(lm.Name, "count", float64(suite.counts[lm.Name]), nil)
		}
		r, ok := suite.metrics[lm.Name]
		if !ok {
			suite.op(fmt.Errorf("not measured"), lm.Name)
		}
		printed[lm.Name] = r
	}
	file["metrics"], file["counts"], file["kernels"], file["layer_map"] = printed, suite.counts, suite.kernels, layerMetrics
	file["workload_traced"] = map[string]any{
		"metrics": wb.metrics, "counts": wb.counts, "spans": nspans,
		"wall_s": wall.Seconds(), "span_stats": spanStats(wb.tr.snapshot()),
	}
	return printed
}

// spanCost measures what recording one span costs, in nanoseconds.
func spanCost() float64 {
	t := newTracer()
	const n = 200000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("cost", "cost", -1))
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// tracedVsUntraced compares the traced workload's trial rate with the
// untraced run of the same workload, seed and length, when that run's
// result file is present.
func tracedVsUntraced(dir, workload string, seed int64, seconds float64, traced *bench) (float64, bool) {
	raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s-s%d-t0.json", workload, seed)))
	if err != nil {
		return 0, false
	}
	var f struct {
		Seconds float64             `json:"seconds"`
		Metrics map[string]recorded `json:"metrics"`
	}
	if json.Unmarshal(raw, &f) != nil || f.Seconds != seconds {
		return 0, false
	}
	untraced, ok := f.Metrics["trials_per_s"]
	tr, ok2 := traced.metrics["trials_per_s"]
	if !ok || !ok2 || tr.Value == 0 {
		return 0, false
	}
	return untraced.Value / tr.Value, true
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
