package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"ranger"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{99, 89.8}, {100, 90}, {1000, 99}} {
		pct, ok := tailPercentile(tc.n)
		if !ok || pct != tc.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v", tc.n, pct, ok, tc.want)
			continue
		}
		if beyond := tc.n - nearestRank(pct, tc.n); beyond < tailBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond, want >= %d", tc.n, pct, beyond, tailBeyond)
		}
		if beyond := tc.n - nearestRank(pct+0.1, tc.n); beyond >= tailBeyond {
			t.Errorf("n=%d: p%v is not the highest such percentile (p%v leaves %d)", tc.n, pct, pct+0.1, beyond)
		}
	}
	if _, ok := tailPercentile(tailBeyond); ok {
		t.Errorf("tailPercentile(%d) found a tail", tailBeyond)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if s := summarize(xs); s.TailPct != 90 || s.Tail != 90 || s.N != 100 {
		t.Errorf("summarize(1..100) tail = p%v %v (n %d), want p90 90 (n 100)", s.TailPct, s.Tail, s.N)
	}
}

// Benchmark spread is judged with Python's statistics.quantiles(n=4);
// quartiles must agree with it.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{4, 8}, 4, 6, 8},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestSameSeedSameInputsAndJobMix(t *testing.T) {
	m, err := ranger.BuildModel("lenet")
	if err != nil {
		t.Fatal(err)
	}
	pick := func(seed int64) []int {
		_, idx, err := pickInputs(m, 3, rngFor(seed, "inputs"))
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	if a, b := pick(7), pick(7); !reflect.DeepEqual(a, b) {
		t.Errorf("seed 7 picked inputs %v, then %v", a, b)
	}
	if a, b := pick(7), pick(8); reflect.DeepEqual(a, b) {
		t.Errorf("seeds 7 and 8 both picked inputs %v", a)
	}
	if a, b := jobMix(7, 12), jobMix(7, 12); !reflect.DeepEqual(a, b) {
		t.Errorf("seed 7 gave two job mixes:\n%v\n%v", a, b)
	}
	if a, b := jobMix(7, 12), jobMix(8, 12); reflect.DeepEqual(a, b) {
		t.Errorf("seeds 7 and 8 gave the same job mix %v", a)
	}
	kinds := make(map[string]int)
	for _, s := range jobMix(7, 4*len(jobKinds)) {
		s.Seed = 0
		raw, _ := json.Marshal(s)
		kinds[string(raw)]++
	}
	if len(kinds) != len(jobKinds) {
		t.Errorf("job mix covers %d kinds, want %d", len(kinds), len(jobKinds))
	}
	for k, n := range kinds {
		if n != 4 {
			t.Errorf("kind %s appears %d times in 4 cycles", k, n)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, StartNS: 10, EndNS: 30},
		{ID: 2, Parent: 0, StartNS: 20, EndNS: 50},  // overlaps span 1
		{ID: 3, Parent: 0, StartNS: 90, EndNS: 120}, // runs past its parent
		{ID: 4, Parent: 2, StartNS: 25, EndNS: 35},
	}
	got := selfTimes(spans)
	want := map[int]time.Duration{0: 50, 1: 20, 2: 20, 3: 30, 4: 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerRecordsNothingWhenNil(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", "r", -1); id != -1 {
		t.Errorf("nil tracer begin = %d, want -1", id)
	}
	tr.end(-1)
	if s := tr.snapshot(); s != nil {
		t.Errorf("nil tracer snapshot = %v", s)
	}
	tr = newTracer()
	err := tr.do("outer", "r", -1, func(id int) error {
		return tr.do("inner", "r", id, func(int) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].Name != "outer" || s[1].EndNS < s[1].StartNS {
		t.Errorf("spans = %+v", s)
	}
}

// BENCHMARK.json and the code must name the same workloads and metrics.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if want := sortedKeys(workloads); !reflect.DeepEqual(sorted(names), want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, want)
	}
	names = nil
	for _, m := range bj.EndToEnd {
		names = append(names, m.Name)
	}
	if !reflect.DeepEqual(names, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, code %v", names, e2eMetrics)
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, code %d", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range bj.PerLayer {
		lm := layerMetrics[i]
		if m.Name != lm.Name || m.Unit != lm.Unit || m.Better != lm.Better {
			t.Errorf("per_layer[%d] = %+v, code %+v", i, m, lm)
		}
	}
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}
