package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ranger"
	"ranger/internal/service"
	"ranger/internal/train"
)

// svcState is the rangerd workload's set-up: trained lenet and its
// protected twin (for clean inference), and a started service over a
// fresh filesystem store.
type svcState struct {
	origC, protC *ranger.CompiledModel
	inputs       []ranger.Feeds
	svc          *ranger.Service
	store        ranger.JobStore
}

const (
	rangerdJobWorkers   = 2
	rangerdClients      = 2
	rangerdSegments     = 20  // closed-loop segments, each followed by an inference burst
	rangerdInferPairs   = 128 // per burst, about 0.2 s; one more burst runs before the reference jobs
	rangerdRefBlock     = 2048
	rangerdRefProtected = 1792 // trials per input of the protected reference job
	rangerdRefOriginal  = 1024
	rangerdRefInputs    = 4
	// jobTimeout bounds one job's wait, far above any job in the mix.
	jobTimeout = 60 * time.Second
)

func setupRangerd(b *bench) (*svcState, error) {
	var st *svcState
	var stale []*ranger.Service
	rep := 0
	err := b.timeSetup(func(zoo *train.Zoo, req string, parent int) error {
		s := &svcState{}
		orig, prot, _, err := b.loadProtected(zoo, "lenet", req, parent)
		if err != nil {
			return err
		}
		if s.origC, err = b.compile(orig, req, parent); err != nil {
			return err
		}
		if s.protC, err = b.compile(prot, req, parent); err != nil {
			return err
		}
		if s.inputs, _, err = pickInputs(orig, 8, rngFor(b.seed, "lenet-inputs")); err != nil {
			return err
		}
		dir := filepath.Join(b.workDir, "rangerd", fmt.Sprintf("store-%d", rep))
		rep++
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := b.tr.do("service.start", req, parent, func(int) error {
			if s.store, err = ranger.OpenJobStore(dir); err != nil {
				return err
			}
			s.svc, err = ranger.NewService(ranger.ServiceConfig{Store: s.store, JobWorkers: rangerdJobWorkers,
				CampaignWorkers: 1, Logf: func(string, ...any) {}})
			if err != nil {
				return err
			}
			s.svc.Start()
			return nil
		}); err != nil {
			return err
		}
		if st != nil {
			stale = append(stale, st.svc)
		}
		st = s
		return nil
	})
	for _, svc := range stale {
		svc.Drain()
	}
	return st, err
}

// jobResult is one job's life as its client saw it.
type jobResult struct {
	req       string // client request id, shared by the job's spans
	man       ranger.JobManifest
	status    ranger.JobStatus
	latency   time.Duration // Submit call until terminal
	queueWait time.Duration // Submit call until first seen running
	run       time.Duration // first seen running until terminal
}

// trials returns a finished job's completed trials (sequences for
// persistent jobs) and inferences.
func (r jobResult) trials() (trials, inferences int64) {
	if r.status.Persistent != nil {
		return r.status.Persistent.Sequences, r.status.Persistent.Inferences
	}
	if r.status.Outcome != nil {
		return int64(r.status.Outcome.Trials), 0
	}
	return 0, 0
}

// runJob submits one job and waits, on the job's event stream, until it
// reaches a terminal state — what a rangerd client does. A bench.job
// span covers it, parent of the submit, queue-wait and run spans.
func (b *bench) runJob(svc *ranger.Service, spec ranger.JobSpec, req string) (jobResult, error) {
	r := jobResult{req: req}
	job := b.tr.begin("bench.job", req, -1)
	defer b.tr.end(job)
	t0 := time.Now()
	var err error
	if err = b.tr.do("service.submit", req, job, func(int) error { r.man, err = svc.Submit(spec); return err }); err != nil {
		return r, err
	}
	sub := svc.Hub().Subscribe(r.man.ID, 4096)
	defer svc.Hub().Unsubscribe(sub)
	var running time.Time
	_, st, err := svc.Job(r.man.ID)
	if err != nil {
		return r, err
	}
	if st.State != ranger.JobQueued {
		running = time.Now()
	}
	if !st.State.Terminal() {
		timeout := time.After(jobTimeout)
	wait:
		for {
			select {
			case ev, ok := <-sub.C:
				if !ok {
					break wait
				}
				if ev.Kind != "status" || !running.IsZero() {
					continue
				}
				var s struct {
					State ranger.JobState `json:"state"`
				}
				if json.Unmarshal(ev.Data, &s) == nil && s.State != ranger.JobQueued {
					running = time.Now()
				}
			case <-timeout:
				return r, fmt.Errorf("job %s not terminal after %v", r.man.ID, jobTimeout)
			}
		}
		if _, st, err = svc.Job(r.man.ID); err != nil {
			return r, err
		}
	}
	end := time.Now()
	if running.IsZero() {
		running = end
	}
	r.status, r.latency, r.queueWait, r.run = st, end.Sub(t0), running.Sub(t0), end.Sub(running)
	b.tr.interval("service.queue_wait", req, job, t0, running)
	b.tr.interval("service.run", req, job, running, end)
	if st.State != ranger.JobCompleted {
		return r, fmt.Errorf("job %s ended %s: %s", r.man.ID, st.State, st.Error)
	}
	return r, nil
}

// verifyJob refolds a completed job's stored chain and checks it against
// the job's stored outcome.
func (b *bench) verifyJob(store ranger.JobStore, r jobResult) {
	blocks, err := store.Blocks(r.man.ID)
	if !b.op(err, "chain "+r.man.ID) {
		return
	}
	var sum ranger.ChainSummary
	if err := b.tr.do("service.verify", r.req, -1, func(int) error { sum, err = ranger.VerifyJobChain(r.man, blocks); return err }); !b.op(err, "verify "+r.man.ID) {
		return
	}
	var want, got []byte
	if r.status.Persistent != nil {
		want, _ = json.Marshal(r.status.Persistent)
		got, _ = json.Marshal(ranger.RecordJobPersistentOutcome(sum.Persistent))
	} else {
		want, _ = json.Marshal(r.status.Outcome)
		got, _ = json.Marshal(ranger.RecordJobOutcome(sum.Outcome))
	}
	b.check(string(want) == string(got), "job %s: chain refolds to %s, stored outcome %s", r.man.ID, got, want)
}

// closedLoop drives the service with rangerdClients clients until the
// deadline, each submitting its next job only once the previous one is
// terminal; next indexes the next spec to submit. Jobs still running at
// the deadline finish and count; the loop's wall time runs to the last
// completion.
func (b *bench) closedLoop(svc *ranger.Service, specs []ranger.JobSpec, next *atomic.Int64, deadline time.Time) ([]jobResult, time.Duration) {
	var mu sync.Mutex
	var results []jobResult
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < rangerdClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if int(i) >= len(specs) {
					return
				}
				r, err := b.runJob(svc, specs[i], fmt.Sprintf("job-%d", i))
				if !b.op(err, fmt.Sprintf("job %d", i)) {
					return
				}
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return results, time.Since(t0)
}

func runRangerd(b *bench) error {
	st, err := setupRangerd(b)
	if err != nil {
		return err
	}
	defer func() {
		st.svc.Drain()
		os.RemoveAll(filepath.Join(b.workDir, "rangerd"))
	}()
	// Clean lenet inference runs while the service is idle, in bursts at
	// the start and after every closed-loop segment, so its samples span
	// the run. A lenet inference is far shorter than a shared host's
	// fast and slow spells, so its median latency is taken per burst.
	ci := &cleanInference{span: "graph.run", inputs: st.inputs, orig: st.origC.Run, prot: st.protC.Run, perBurst: true}
	burst := func() error { return ci.sample(b, rangerdInferPairs, "clean", -1) }
	if err := burst(); err != nil {
		return err
	}

	// sdc_reduction: a reference pair of lenet jobs through the service,
	// unprotected and Ranger-protected, sharing a seeded fault stream.
	seed := seedAt(b.seed, "sdc", 0)
	var ref [2]jobResult
	var refErr [2]error
	var wg sync.WaitGroup
	for k, spec := range []ranger.JobSpec{
		{Model: "lenet", Trials: rangerdRefOriginal, Inputs: rangerdRefInputs, Seed: seed, BlockTrials: rangerdRefBlock},
		{Model: "lenet", Protect: "ranger", Trials: rangerdRefProtected, Inputs: rangerdRefInputs, Seed: seed, BlockTrials: rangerdRefBlock},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ref[k], refErr[k] = b.runJob(st.svc, spec, fmt.Sprintf("reference-%d", k))
		}()
	}
	wg.Wait()
	for k := range ref {
		if !b.op(refErr[k], "reference job") {
			return refErr[k]
		}
		b.verifyJob(st.store, ref[k])
	}
	oo, po := ref[0].status.Outcome, ref[1].status.Outcome
	red, err := sdcReduction(oo.Top1SDC, oo.Trials, po.Top1SDC, po.Trials)
	if !b.op(err, "sdc_reduction") {
		return err
	}
	b.record("sdc_reduction", "ratio", red, []float64{red})

	specs := jobMix(b.seed, 1<<14)
	var next atomic.Int64
	var results []jobResult
	var wall time.Duration
	for seg := 0; seg < rangerdSegments; seg++ {
		rs, w := b.closedLoop(st.svc, specs, &next, b.share(1.0/rangerdSegments))
		results, wall = append(results, rs...), wall+w
		if err := burst(); err != nil {
			return err
		}
	}
	b.recordInference(ci, false)
	var trials, adaptTrials, weightInf int64
	var adaptRun, weightRun time.Duration
	var latencies, adaptRates, infRates []float64
	kindLatencies := make(map[string][]float64)
	for _, r := range results {
		n, inf := r.trials()
		trials += n
		latencies = append(latencies, r.latency.Seconds())
		kind := kindName(r.man.Spec)
		kindLatencies[kind] = append(kindLatencies[kind], r.latency.Seconds())
		switch kind {
		case "adaptive":
			adaptTrials += n
			adaptRun += r.run
			adaptRates = append(adaptRates, float64(n)/r.run.Seconds())
		case "weight_repair":
			weightInf += inf
			weightRun += r.run
			infRates = append(infRates, float64(inf)/r.run.Seconds())
		}
		b.verifyJob(st.store, r)
	}
	b.check(len(results) > 0, "no job completed")
	for kind, secs := range kindLatencies {
		b.recordMedian("job_latency_s."+kind, "s", secs)
	}
	jps := float64(len(results)) / wall.Seconds()
	b.record("jobs_per_s", "1/s", jps, []float64{jps})
	b.recordMedian("job_latency_p50_s", "s", latencies)
	b.recordTail("job_latency_tail_s", "s", latencies)
	tps := float64(trials) / wall.Seconds()
	b.record("trials_per_s", "1/s", tps, []float64{tps})
	b.record("adaptive_trials_per_s", "1/s", float64(adaptTrials)/adaptRun.Seconds(), adaptRates)
	b.record("inferences_per_s", "1/s", float64(weightInf)/weightRun.Seconds(), infRates)
	m := st.svc.Metrics
	b.count("service.jobs_completed", int64(m.Counter(service.MetricJobsCompleted)))
	b.count("service.jobs_failed", int64(m.Counter(service.MetricJobsFailed)))
	b.count("service.rejected", int64(m.Counter(service.MetricJobsRejected)))
	b.count("service.blocks", int64(m.Counter(service.MetricBlocksPersisted)))
	return nil
}
