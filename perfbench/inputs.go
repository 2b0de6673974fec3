package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"ranger"
	"ranger/internal/data"
)

// rngFor derives an independent, reproducible stream from the run's
// seed and a purpose label, so adding a draw to one purpose never
// shifts another's inputs.
func rngFor(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, purpose)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// pickInputs draws n validation samples in a seeded order and keeps
// those the model gets right (top-1 for classifiers, within 15° for
// steering regressors) — the paper's rule that campaign inputs are
// correctly predicted. It returns the feeds and their sample indices.
func pickInputs(m *ranger.Model, n int, rng *rand.Rand) ([]ranger.Feeds, []int, error) {
	ds, err := ranger.DatasetFor(m)
	if err != nil {
		return nil, nil, err
	}
	cm, err := m.Compile()
	if err != nil {
		return nil, nil, err
	}
	var feeds []ranger.Feeds
	var idx []int
	for _, i := range rng.Perm(ds.Len(ranger.ValSplit)) {
		s := ds.Sample(ranger.ValSplit, i)
		f := ranger.Feeds{m.Input: s.X}
		out, err := cm.Run(f)
		if err != nil {
			return nil, nil, err
		}
		if correct(m, out, s) {
			feeds = append(feeds, f)
			idx = append(idx, i)
			if len(feeds) == n {
				return feeds, idx, nil
			}
		}
	}
	return nil, nil, fmt.Errorf("%s: only %d of %d correctly predicted inputs", m.Name, len(feeds), n)
}

func correct(m *ranger.Model, out *ranger.Tensor, s data.Sample) bool {
	if m.Kind == ranger.Classifier {
		return out.ArgMax() == s.Label
	}
	pred, tgt := float64(out.Data()[0]), float64(s.Target)
	if !m.OutputInDegrees {
		pred, tgt = data.RadiansToDegrees(pred), data.RadiansToDegrees(tgt)
	}
	return math.Abs(pred-tgt) < 15
}

// jobKinds is the rangerd workload's job mix on trained lenet: one
// transient fp32 job under Ranger, one int8 job, one adaptive job and
// one persistent weight-fault job with repair, each with small blocks so
// per-block service work (RunSlice set-up, sealing, fsync) dominates.
var jobKinds = []ranger.JobSpec{
	{Model: "lenet", Protect: "ranger", Trials: 96, Inputs: 2, BlockTrials: 64},
	{Model: "lenet", Backend: "int8", Trials: 96, Inputs: 2, BlockTrials: 64},
	{Model: "lenet", Protect: "ranger", Adaptive: "stratified", Trials: 80, Inputs: 2},
	{Model: "lenet", Surface: "weight", Repair: true, Trials: 256, SequenceLen: 16, BlockTrials: 64},
}

// kindName names a job's kind in result files.
func kindName(s ranger.JobSpec) string {
	switch {
	case s.Adaptive != "":
		return "adaptive"
	case s.Persistent():
		return "weight_repair"
	case s.Backend == "int8":
		return "uniform_int8"
	}
	return "uniform_fp32"
}

// jobMix returns n job specs: the kinds round-robin, each cycle in a
// seeded order, each job with its own seeded fault-sampling seed.
func jobMix(seed int64, n int) []ranger.JobSpec {
	rng := rngFor(seed, "rangerd-mix")
	out := make([]ranger.JobSpec, 0, n)
	for len(out) < n {
		for _, k := range rng.Perm(len(jobKinds)) {
			if len(out) == n {
				break
			}
			spec := jobKinds[k]
			spec.Seed = rng.Int63n(1 << 40)
			out = append(out, spec)
		}
	}
	return out
}
