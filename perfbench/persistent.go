package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"ranger"
	"ranger/internal/train"
)

// daveState is the persistent workload's set-up: trained dave and its
// Ranger-protected twin, both quantized to int8, the protected model's
// calibration for int8 campaigns, the symptom detector's thresholds and
// seeded inputs.
type daveState struct {
	orig, prot   *ranger.Model
	qOrig, qProt *ranger.QuantizedModel
	calib        ranger.Calibration
	maxima       map[string]float64
	inputs       []ranger.Feeds
}

func setupDave(b *bench) (*daveState, error) {
	var st *daveState
	err := b.timeSetup(func(zoo *train.Zoo, req string, parent int) error {
		s := &daveState{}
		orig, prot, bounds, err := b.loadProtected(zoo, "dave", req, parent)
		if err != nil {
			return err
		}
		s.orig, s.prot, s.maxima = orig, prot, maxima(bounds)
		var calibOrig ranger.Calibration
		for _, c := range []struct {
			m   *ranger.Model
			cal *ranger.Calibration
			q   **ranger.QuantizedModel
		}{{prot, &s.calib, &s.qProt}, {orig, &calibOrig, &s.qOrig}} {
			if err := b.tr.do("core.calibrate", req, parent, func(int) error { *c.cal, err = ranger.Calibrate(c.m, profileSamples); return err }); err != nil {
				return err
			}
			if err := b.tr.do("graph.quantize", req, parent, func(int) error { *c.q, err = c.m.Quantize(*c.cal); return err }); err != nil {
				return err
			}
		}
		if s.inputs, _, err = pickInputs(orig, persistentInputs, rngFor(b.seed, "dave-inputs")); err != nil {
			return err
		}
		st = s
		return nil
	})
	return st, err
}

// maxima turns profiled bounds into the symptom detector's thresholds:
// each activation's profiled maximum, as rangerd's persistent jobs use.
func maxima(bounds ranger.Bounds) map[string]float64 {
	m := make(map[string]float64, len(bounds))
	for name, bd := range bounds {
		m[name] = bd.High
	}
	return m
}

// persistentCampaign builds a sequence campaign on the protected model
// under the symptom detector with scrub-from-golden repair.
func (st *daveState) persistentCampaign(surface ranger.Surface, int8 bool, sequences int, seed int64) *ranger.Campaign {
	c := &ranger.Campaign{Model: st.prot, Trials: sequences, Seed: seed, Surface: surface, SequenceLen: persistentSeqLen,
		Repair: true, Detector: ranger.NewSymptomDetector(st.maxima, 1)}
	if int8 {
		c.Scenario = ranger.BitFlipInt8{Flips: 1}
		c.Calibration = st.calib
	}
	return c
}

// surfaceRuns are the persistent workload's three fault surfaces and the
// sequences each runs per round.
var surfaceRuns = []struct {
	name      string
	surface   ranger.Surface
	int8      bool
	sequences int
}{
	{"weight_fp32", ranger.WeightSurface{}, false, 32},
	{"weight_int8", ranger.WeightSurface{}, true, 32},
	{"quantparam_int8", ranger.QuantParamSurface{}, true, 16},
}

// runPersistentCampaign runs one sequence campaign inside an
// inject.run_persistent span, checking every repair.
func (b *bench) runPersistentCampaign(c *ranger.Campaign, inputs []ranger.Feeds, req string, parent int) (out ranger.PersistentOutcome, err error) {
	err = b.tr.do("inject.run_persistent", req, parent, func(int) error { out, err = c.RunPersistent(context.Background(), inputs); return err })
	if !b.op(err, "persistent campaign "+req) {
		return out, err
	}
	b.check(out.PostRepairOK == out.Repairs, "%s: %d of %d repairs reproduced the clean reference", req, out.PostRepairOK, out.Repairs)
	b.count("inject.detections", int64(out.Detected))
	b.count("inject.repairs", int64(out.Repairs))
	b.count("inject.repair_ok", int64(out.PostRepairOK))
	b.count("inject.dues", int64(out.DUEs))
	return out, nil
}

const (
	persistentInferPairs   = 1
	persistentMinRounds    = 12 // enough for a tail over rounds
	persistentInputs       = 16
	persistentWindow       = 4 // inputs per sequence campaign
	persistentSeqLen       = 8
	persistentAdaptBudget  = 24
	persistentSDCTrials    = 1024 // per input
	persistentSeqCheckSize = 64
)

func runPersistent(b *bench) error {
	st, err := setupDave(b)
	if err != nil {
		return err
	}
	// Every round runs one campaign per surface over the round's window
	// of the input pool — the round's job — then one adaptive campaign
	// and a few clean int8 inference pairs. Adaptive sequence campaigns
	// replay whole inferences and take seconds each, too few per run
	// for a steady rate, so the adaptive engine runs on transient faults
	// of the same model.
	ci := &cleanInference{span: "graph.qrun", inputs: st.inputs, orig: st.qOrig.Run, prot: st.qProt.Run}
	var secs, seqs, infs, arates []float64
	deadline := b.share(1)
	for i := 0; i < persistentMinRounds || time.Now().Before(deadline); i++ {
		lo := (i * persistentWindow) % len(st.inputs)
		window := st.inputs[lo : lo+persistentWindow]
		req := roundReq(i)
		round := b.tr.begin("bench.round", req, -1)
		t0 := time.Now()
		var n, inf int64
		for k, r := range surfaceRuns {
			c := st.persistentCampaign(r.surface, r.int8, r.sequences, seedAt(b.seed, "persistent", 3*i+k))
			out, err := b.runPersistentCampaign(c, window, req, round)
			if err != nil {
				return err
			}
			n += out.Sequences
			inf += out.Inferences
		}
		secs = append(secs, time.Since(t0).Seconds())
		seqs, infs = append(seqs, float64(n)), append(infs, float64(inf))
		b.count("inject.trials", n)
		rate, err := b.adaptiveRound(st.prot, nil, st.inputs[i%len(st.inputs)], persistentAdaptBudget, i, round)
		if err != nil {
			return err
		}
		arates = append(arates, rate)
		if err := ci.sample(b, persistentInferPairs, req, round); err != nil {
			return err
		}
		b.tr.end(round)
	}
	b.recordRounds(secs, map[string][]float64{"trials_per_s": seqs, "inferences_per_s": infs})
	b.recordMedian("adaptive_trials_per_s", "1/s", arates)
	b.recordInference(ci, false)

	// sdc_reduction guards fault semantics on dave: a transient campaign
	// over the last third of each model's fault space, where SDCs are
	// common enough for a steady ratio at a modest trial count.
	var sdc, trials [2]int
	seed := seedAt(b.seed, "sdc", 0)
	for k, m := range []*ranger.Model{st.orig, st.prot} {
		c := &ranger.Campaign{Model: m, Trials: persistentSDCTrials, Seed: seed, TargetNodes: lateNodes(m)}
		out, err := b.run(c, st.inputs, fmt.Sprintf("sdc-%d", k), -1)
		if err != nil {
			return err
		}
		sdc[k], trials[k] = sdcCount(m, out), out.Trials
	}
	red, err := sdcReduction(sdc[0], trials[0], sdc[1], trials[1])
	if !b.op(err, "sdc_reduction") {
		return err
	}
	b.record("sdc_reduction", "ratio", red, []float64{red})

	b.persistentWorkerCheck(st)
	return nil
}

// persistentWorkerCheck folds a seeded persistent slice at one and at
// two workers; the outcomes must be identical.
func (b *bench) persistentWorkerCheck(st *daveState) {
	const width = 16
	seed := seedAt(b.seed, "seqcheck", 0)
	lo := int64(rngFor(seed, "slice").Intn(persistentSeqCheckSize - width))
	var got [2][]byte
	for k, workers := range []int{1, 2} {
		c := st.persistentCampaign(ranger.WeightSurface{}, false, persistentSeqCheckSize, seed)
		c.Workers = workers
		out, err := c.RunPersistentSlice(context.Background(), st.inputs[:persistentWindow], lo, lo+width)
		if !b.op(err, "persistent worker check") {
			return
		}
		b.check(out.PostRepairOK == out.Repairs, "worker check: %d of %d repairs ok", out.PostRepairOK, out.Repairs)
		got[k], _ = json.Marshal(ranger.RecordJobPersistentOutcome(out))
	}
	b.check(string(got[0]) == string(got[1]), "persistent slice [%d,%d): 1 worker %s, 2 workers %s", lo, lo+width, got[0], got[1])
}
