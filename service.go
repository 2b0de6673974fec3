// Facade: rangerd, fault-injection campaigns as a durable, observable
// service.
//
// A JobSpec submitted to a Service runs on a shared worker pool behind a
// bounded queue with backpressure. The trial grid executes in chunks;
// each completed chunk persists as one hash-chained block of per-trial
// records, so a killed daemon resumes every in-flight job from its last
// persisted block and folds an aggregate Outcome byte-identical to an
// uninterrupted run. VerifyJobChain re-validates a job's chain offline.
// cmd/rangerd wraps this API in an HTTP daemon.
package ranger

import (
	"ranger/internal/service"
)

// JobSpec describes one campaign job submitted to a Service: model,
// scenario, protection, backend, and trial grid. Zero values of optional
// fields select the paper's primary configuration.
type JobSpec = service.JobSpec

// JobManifest is a job's immutable identity: the canonical spec, the
// grid size, and the spec hash that anchors the job's block chain.
type JobManifest = service.Manifest

// JobStatus is a job's mutable progress record: state, durable frontier,
// chain head, and (on completion) the aggregate outcome.
type JobStatus = service.Status

// JobState is a job's lifecycle state.
type JobState = service.State

// The job lifecycle states.
const (
	JobQueued    = service.StateQueued
	JobRunning   = service.StateRunning
	JobCompleted = service.StateCompleted
	JobFailed    = service.StateFailed
	JobCancelled = service.StateCancelled
)

// JobTrialRecord is one persisted trial result inside a chain block.
type JobTrialRecord = service.TrialRecord

// JobBlock is one hash-chained block of persisted trial records.
type JobBlock = service.Block

// JobOutcomeRecord is the JSON-safe persisted form of an aggregate
// Outcome (deviations as IEEE-754 bit patterns).
type JobOutcomeRecord = service.OutcomeRecord

// RecordJobOutcome converts an aggregate campaign Outcome to its
// persisted, JSON-safe form.
func RecordJobOutcome(o Outcome) JobOutcomeRecord { return service.RecordOutcome(o) }

// JobPersistentOutcomeRecord is the JSON-safe persisted form of an
// aggregate PersistentOutcome (persistent-surface jobs).
type JobPersistentOutcomeRecord = service.PersistentOutcomeRecord

// RecordJobPersistentOutcome converts an aggregate persistent campaign
// outcome to its persisted, JSON-safe form.
func RecordJobPersistentOutcome(o PersistentOutcome) JobPersistentOutcomeRecord {
	return service.RecordPersistentOutcome(o)
}

// DefaultBlockTrials is the default durability granularity: trials per
// hash-chained block.
const DefaultBlockTrials = service.DefaultBlockTrials

// ChainSummary is the result of verifying a job's block chain.
type ChainSummary = service.ChainSummary

// JobStore persists jobs for a Service.
type JobStore = service.Store

// Service runs campaign jobs durably on a bounded worker pool.
type Service = service.Service

// ServiceConfig configures NewService.
type ServiceConfig = service.Config

// ServiceMetrics is the service's metrics registry (counters, gauges,
// and the block-duration histogram, exposed in Prometheus text format).
type ServiceMetrics = service.Metrics

// Backpressure and lifecycle sentinels of Service.Submit.
var (
	ErrJobQueueFull    = service.ErrQueueFull
	ErrServiceDraining = service.ErrDraining
)

// OpenJobStore opens (creating if needed) a filesystem job store rooted
// at dir: one directory per job holding manifest.json, status.json, and
// the append-only chain.jsonl.
func OpenJobStore(dir string) (JobStore, error) { return service.OpenFSStore(dir) }

// NewService builds a service over cfg.Store and recovers interrupted
// jobs from their persisted frontiers. Call Start to launch the workers
// and Drain or Stop to shut down.
func NewService(cfg ServiceConfig) (*Service, error) { return service.New(cfg) }

// NewServiceHandler wraps a Service in its HTTP API (job submission,
// status, SSE streaming, chain download, cancellation, /metrics,
// /healthz). streamSlots bounds concurrent synchronous /v1/stream
// campaigns (0 = default).
func NewServiceHandler(svc *Service, streamSlots int) *service.Server {
	return service.NewServer(svc, streamSlots)
}

// VerifyJobChain checks a job's block chain against its manifest —
// manifest seal, block seals, prev-hash linkage from the spec hash,
// contiguous grid coverage — and returns the folded aggregate Outcome.
// This is the offline re-verification path behind `rangerd verify`.
func VerifyJobChain(man JobManifest, blocks []JobBlock) (ChainSummary, error) {
	return service.VerifyChain(man, blocks)
}
