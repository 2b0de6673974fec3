// The service metrics layer: job and trial counters, queue-depth and
// running-jobs gauges, and a block-duration histogram, exposed in
// Prometheus text format on /metrics. Everything is stdlib: a mutex, a
// few integers, and fixed histogram buckets.
package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// blockBuckets are the block-duration histogram upper bounds, in
// seconds. A block is BlockTrials trials (or one adaptive round) run,
// sealed, and appended: a few ms for small blocks of suffix-replayed
// faults on small models, up to minutes for large blocks of full
// replays on the deepest models, so the buckets cover that range
// log-spaced.
var blockBuckets = []float64{
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10, 25, 50, 100, 250,
}

// Metrics instruments the service. All methods are safe for concurrent
// use. The zero value is not usable; call NewMetrics.
type Metrics struct {
	mu sync.Mutex

	counters map[string]uint64
	gauges   map[string]func() float64

	histCounts []uint64 // per blockBuckets bucket, non-cumulative
	histInf    uint64
	histSum    float64
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters:   make(map[string]uint64),
		gauges:     make(map[string]func() float64),
		histCounts: make([]uint64, len(blockBuckets)),
	}
}

// The service counter names.
const (
	MetricJobsSubmitted   = "rangerd_jobs_submitted_total"
	MetricJobsRejected    = "rangerd_jobs_rejected_total" // queue-full backpressure
	MetricJobsCompleted   = "rangerd_jobs_completed_total"
	MetricJobsFailed      = "rangerd_jobs_failed_total"
	MetricJobsCancelled   = "rangerd_jobs_cancelled_total"
	MetricJobsResumed     = "rangerd_jobs_resumed_total" // resumed past a persisted frontier
	MetricJobsInterrupted = "rangerd_jobs_interrupted_total"
	MetricBlocksPersisted = "rangerd_blocks_persisted_total"
	MetricTrialsRun       = "rangerd_trials_total"
	MetricStreamDropped   = "rangerd_stream_events_dropped_total"
	MetricStreamsRejected = "rangerd_streams_rejected_total"
)

// MetricStreamsActive is the gauge of ephemeral /v1/stream campaigns
// holding a stream slot.
const MetricStreamsActive = "rangerd_streams_active"

// Inc adds n to a named counter.
func (m *Metrics) Inc(name string, n uint64) {
	m.mu.Lock()
	m.counters[name] += n
	m.mu.Unlock()
}

// Counter returns a counter's current value.
func (m *Metrics) Counter(name string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// SetGauge registers a live gauge read at exposition time (queue depth,
// running jobs).
func (m *Metrics) SetGauge(name string, fn func() float64) {
	m.mu.Lock()
	m.gauges[name] = fn
	m.mu.Unlock()
}

// Gauge reads a registered gauge now; an unregistered name reads 0.
func (m *Metrics) Gauge(name string) float64 {
	m.mu.Lock()
	fn := m.gauges[name]
	m.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// ObserveBlock records one sealed block's duration in the
// block-duration histogram.
func (m *Metrics) ObserveBlock(elapsed time.Duration) {
	sec := elapsed.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.histSum += sec
	if idx := sort.SearchFloat64s(blockBuckets, sec); idx < len(blockBuckets) {
		m.histCounts[idx]++
	} else {
		m.histInf++
	}
}

// WritePrometheus writes the registry in Prometheus text exposition
// format (counters, gauges, and the block-duration histogram).
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	names := make([]string, 0, len(m.counters))
	for name := range m.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, m.counters[name])
	}

	names = names[:0]
	for name := range m.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, m.gauges[name]())
	}

	const hist = "rangerd_block_seconds"
	fmt.Fprintf(w, "# TYPE %s histogram\n", hist)
	var cum uint64
	for i, ub := range blockBuckets {
		cum += m.histCounts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", hist, fmt.Sprintf("%g", ub), cum)
	}
	cum += m.histInf
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", hist, cum)
	fmt.Fprintf(w, "%s_sum %g\n", hist, m.histSum)
	fmt.Fprintf(w, "%s_count %d\n", hist, cum)
}
