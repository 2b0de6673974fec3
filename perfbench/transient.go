package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"ranger"
	"ranger/internal/inject"
	"ranger/internal/train"
)

// profileSamples sizes bounds profiling and int8 calibration, as
// rangerd jobs do by default.
const profileSamples = 32

// vggInputs is the vgg11 input pool; rounds cycle through it. Kernels
// skip zero activations, so speed depends on the input, and a large
// pool keeps one seed's draw from shifting the rates.
const vggInputs = 40

// transientCfg sizes one of the vgg11 transient-campaign workloads.
type transientCfg struct {
	late bool
	// origTrials and protTrials are the trials per uniform campaign; the
	// protected campaign runs more because its SDCs are rarer and their
	// count bounds sdc_reduction's noise.
	origTrials, protTrials int
	// minRounds always run, and exactly they fold into sdc_reduction,
	// so that metric depends on the seed alone.
	minRounds int
	// adaptiveBudget is each round's adaptive campaign trial budget.
	adaptiveBudget int
	// inferPairs is each round's count of clean inference pairs.
	inferPairs int
}

var (
	fullspaceCfg = transientCfg{origTrials: 96, protTrials: 384, minRounds: 32, adaptiveBudget: 64, inferPairs: 2}
	lateCfg      = transientCfg{late: true, origTrials: 4096, protTrials: 4096, minRounds: 12, adaptiveBudget: 4096, inferPairs: 2}
)

// vggState is the set-up both vgg11 workloads share: the trained model
// and its Ranger-protected twin, compiled, with seeded inputs and (for
// late) each model's fault-space restriction.
type vggState struct {
	orig, prot               *ranger.Model
	origC, protC             *ranger.CompiledModel
	inputs                   []ranger.Feeds
	origTargets, protTargets []string
}

// lateNodes is the last third of a model's corruptible nodes.
func lateNodes(m *ranger.Model) []string {
	ns := inject.CorruptibleNodes(m, nil, nil)
	return ns[len(ns)-len(ns)/3:]
}

// loadProtected loads a zoo model, profiles it and protects it, inside
// spans named after the layer each call enters.
func (b *bench) loadProtected(zoo *train.Zoo, name, req string, parent int) (orig, prot *ranger.Model, bounds ranger.Bounds, err error) {
	if err = b.tr.do("train.zoo_get", req, parent, func(int) error { orig, err = zoo.Get(name); return err }); err != nil {
		return
	}
	if err = b.tr.do("core.profile", req, parent, func(int) error { bounds, err = ranger.Profile(orig, profileSamples); return err }); err != nil {
		return
	}
	err = b.tr.do("core.protect", req, parent, func(int) error { prot, _, err = ranger.Protect(orig, bounds, ranger.ProtectOptions{}); return err })
	return
}

func (b *bench) compile(m *ranger.Model, req string, parent int) (cm *ranger.CompiledModel, err error) {
	err = b.tr.do("graph.compile", req, parent, func(int) error { cm, err = m.Compile(); return err })
	return
}

func setupVGG(b *bench, late bool) (*vggState, error) {
	var st *vggState
	err := b.timeSetup(func(zoo *train.Zoo, req string, parent int) error {
		s := &vggState{}
		var err error
		if s.orig, s.prot, _, err = b.loadProtected(zoo, "vgg11", req, parent); err != nil {
			return err
		}
		if s.origC, err = b.compile(s.orig, req, parent); err != nil {
			return err
		}
		if s.protC, err = b.compile(s.prot, req, parent); err != nil {
			return err
		}
		if s.inputs, _, err = pickInputs(s.orig, vggInputs, rngFor(b.seed, "vgg11-inputs")); err != nil {
			return err
		}
		if late {
			s.origTargets, s.protTargets = lateNodes(s.orig), lateNodes(s.prot)
		}
		st = s
		return nil
	})
	return st, err
}

// roundReq is the request id every span of round i carries.
func roundReq(i int) string { return fmt.Sprintf("round-%d", i) }

// seedAt is the fault-sampling seed of a workload's i'th campaign.
func seedAt(seed int64, purpose string, i int) int64 {
	return rngFor(seed, fmt.Sprintf("%s-%d", purpose, i)).Int63n(1 << 40)
}

// run executes a uniform campaign inside an inject.run span.
func (b *bench) run(c *ranger.Campaign, inputs []ranger.Feeds, req string, parent int) (out ranger.Outcome, err error) {
	err = b.tr.do("inject.run", req, parent, func(int) error { out, err = c.Run(context.Background(), inputs); return err })
	b.op(err, "campaign "+req)
	return
}

// adaptive executes an adaptive campaign round by round, one
// inject.adaptive_round span each, and returns the trials it ran.
func (b *bench) adaptive(c *ranger.Campaign, inputs []ranger.Feeds, req string, parent int) (int, error) {
	ar, err := c.NewAdaptiveRun(inputs)
	if !b.op(err, "adaptive "+req) {
		return 0, err
	}
	for !ar.Done() {
		err := b.tr.do("inject.adaptive_round", req, parent, func(int) error { _, err := ar.NextRound(context.Background()); return err })
		if !b.op(err, "adaptive "+req) {
			return 0, err
		}
	}
	return ar.Result().Trials, nil
}

// adaptiveRound runs one AdaptiveStratified campaign with the given
// budget on the protected model and one input, and returns its trial
// rate.
func (b *bench) adaptiveRound(m *ranger.Model, targets []string, in ranger.Feeds, budget, i int, parent int) (float64, error) {
	c := &ranger.Campaign{Model: m, Trials: budget, Seed: seedAt(b.seed, "adaptive", i),
		Adaptive: ranger.AdaptiveStratified, TargetNodes: targets}
	t0 := time.Now()
	n, err := b.adaptive(c, []ranger.Feeds{in}, roundReq(i), parent)
	if err != nil {
		return 0, err
	}
	b.count("inject.adaptive_trials", int64(n))
	return float64(n) / time.Since(t0).Seconds(), nil
}

// sdcCount is a campaign's SDC count: top-1 misclassifications for a
// classifier, deviations above the paper's 15° threshold for a
// steering regressor.
func sdcCount(m *ranger.Model, out ranger.Outcome) int {
	if m.Kind == ranger.Classifier {
		return out.Top1SDC
	}
	n := 0
	for _, d := range out.Deviations {
		if d > 15 {
			n++
		}
	}
	return n
}

func runTransient(b *bench, cfg transientCfg) error {
	st, err := setupVGG(b, cfg.late)
	if err != nil {
		return err
	}
	// Every round runs the uniform pair — one original and one protected
	// campaign on the round's input, sharing its seed; the round's job —
	// then one adaptive campaign and a few clean inference pairs, so
	// every metric samples the whole run and a slow spell of a shared
	// machine moves a few samples, not a whole metric.
	ci := &cleanInference{span: "graph.run", inputs: st.inputs, orig: st.origC.Run, prot: st.protC.Run}
	var secs, trialsRun, arates []float64
	var sdc, trials [2]int
	deadline := b.share(1)
	for i := 0; i < cfg.minRounds || time.Now().Before(deadline); i++ {
		in := st.inputs[i%len(st.inputs)]
		seed := seedAt(b.seed, "uniform", i)
		req := roundReq(i)
		round := b.tr.begin("bench.round", req, -1)
		t0 := time.Now()
		n := 0
		for k, c := range []*ranger.Campaign{
			{Model: st.orig, Trials: cfg.origTrials, Seed: seed, TargetNodes: st.origTargets},
			{Model: st.prot, Trials: cfg.protTrials, Seed: seed, TargetNodes: st.protTargets},
		} {
			out, err := b.run(c, []ranger.Feeds{in}, req, round)
			if err != nil {
				return err
			}
			n += out.Trials
			if i < cfg.minRounds {
				sdc[k] += sdcCount(c.Model, out)
				trials[k] += out.Trials
			}
		}
		secs, trialsRun = append(secs, time.Since(t0).Seconds()), append(trialsRun, float64(n))
		b.count("inject.trials", int64(n))
		rate, err := b.adaptiveRound(st.prot, st.protTargets, in, cfg.adaptiveBudget, i, round)
		if err != nil {
			return err
		}
		arates = append(arates, rate)
		if err := ci.sample(b, cfg.inferPairs, req, round); err != nil {
			return err
		}
		b.tr.end(round)
	}
	b.recordRounds(secs, map[string][]float64{"trials_per_s": trialsRun})
	b.recordMedian("adaptive_trials_per_s", "1/s", arates)
	b.recordInference(ci, true)
	red, err := sdcReduction(sdc[0], trials[0], sdc[1], trials[1])
	if !b.op(err, "sdc_reduction") {
		return err
	}
	b.record("sdc_reduction", "ratio", red, []float64{red})
	b.count("inject.sdc.original", int64(sdc[0]))
	b.count("inject.sdc.ranger", int64(sdc[1]))

	for k, m := range []*ranger.Model{st.orig, st.prot} {
		targets := [2][]string{st.origTargets, st.protTargets}[k]
		b.sliceCheck(m, targets, st.inputs[k], seedAt(b.seed, "slice", k))
	}
	return nil
}

// sliceCheck folds a seeded sub-slice of a campaign on the default path
// (incremental replay, lane batching, all workers) and on the reference
// path (full replay, one lane, one worker); the outcomes must be
// byte-identical.
func (b *bench) sliceCheck(m *ranger.Model, targets []string, in ranger.Feeds, seed int64) {
	const trials, width = 64, 16
	lo := int64(rngFor(seed, "slice").Intn(trials - width))
	def := ranger.Campaign{Model: m, Trials: trials, Seed: seed, TargetNodes: targets}
	ref := def
	ref.Incremental, ref.LaneWidth, ref.Workers = ranger.IncrementalOff, 1, 1
	var got [2][]byte
	for k, c := range []*ranger.Campaign{&def, &ref} {
		out, err := c.RunSlice(context.Background(), []ranger.Feeds{in}, lo, lo+width)
		if !b.op(err, "slice check") {
			return
		}
		got[k], _ = json.Marshal(ranger.RecordJobOutcome(out))
	}
	b.check(string(got[0]) == string(got[1]), "%s slice [%d,%d): default path %s, reference path %s", m.Name, lo, lo+width, got[0], got[1])
}
