// The HTTP/JSON layer over Service: job submission with backpressure,
// status, per-trial SSE streaming, chain download, cancellation, an
// ephemeral synchronous streaming endpoint, and the /metrics and
// /healthz observability endpoints.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"ranger/internal/inject"
)

// Server is the HTTP front of a Service.
type Server struct {
	svc *Service
	mux *http.ServeMux
	// streamSlots bounds concurrent ephemeral /v1/stream campaigns; a
	// full semaphore rejects with 429, the same backpressure contract as
	// the job queue.
	streamSlots chan struct{}
}

// NewServer builds the HTTP handler for a service. streamSlots bounds
// concurrent synchronous /v1/stream campaigns (default 2).
func NewServer(svc *Service, streamSlots int) *Server {
	if streamSlots <= 0 {
		streamSlots = 2
	}
	s := &Server{svc: svc, mux: http.NewServeMux(), streamSlots: make(chan struct{}, streamSlots)}
	// A slot's token is held from acquisition until the handler has
	// returned, so the gauge falls only once the slot is free again.
	svc.Metrics.SetGauge(MetricStreamsActive, func() float64 { return float64(len(s.streamSlots)) })
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/blocks", s.handleBlocks)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("POST /v1/stream", s.handleEphemeralStream)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// jobView is the combined manifest+status representation of GET
// /v1/jobs/{id}.
type jobView struct {
	Manifest Manifest `json:"manifest"`
	Status   Status   `json:"status"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode spec: %w", err))
		return
	}
	man, err := s.svc.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "30")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+man.ID)
	writeJSON(w, http.StatusAccepted, man)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	ids, err := s.svc.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	type row struct {
		ID       string `json:"id"`
		State    State  `json:"state"`
		Frontier int64  `json:"frontier"`
		Total    int64  `json:"total"`
	}
	rows := make([]row, 0, len(ids))
	for _, id := range ids {
		man, st, err := s.svc.Job(id)
		if err != nil {
			continue
		}
		rows = append(rows, row{id, st.State, st.Frontier, man.GridTotal})
	}
	writeJSON(w, http.StatusOK, rows)
}

func (s *Server) jobOr404(w http.ResponseWriter, r *http.Request) (Manifest, Status, bool) {
	man, st, err := s.svc.Job(r.PathValue("id"))
	if errors.Is(err, ErrNoJob) {
		writeError(w, http.StatusNotFound, err)
		return Manifest{}, Status{}, false
	} else if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return Manifest{}, Status{}, false
	}
	return man, st, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	man, st, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, jobView{man, st})
}

func (s *Server) handleBlocks(w http.ResponseWriter, r *http.Request) {
	man, _, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	rc, err := s.svc.Store().ChainReader(man.ID)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/jsonl")
	_, _ = io.Copy(w, rc)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	_, _, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	if err := s.svc.Cancel(r.PathValue("id")); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	_, st, _ := s.svc.Job(r.PathValue("id"))
	writeJSON(w, http.StatusOK, st)
}

// handleJobStream streams a durable job's progress as server-sent
// events: an initial status snapshot, then live trial / block / status
// events until the job reaches a terminal state or the client
// disconnects. Disconnecting only detaches the subscriber — the durable
// job keeps running; clients catch up from /blocks.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	man, st, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusNotImplemented, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Subscribe before the snapshot so no event between snapshot and
	// subscription is lost.
	sub := s.svc.Hub().Subscribe(man.ID, 256)
	defer s.svc.Hub().Unsubscribe(sub)

	writeSSE := func(kind string, data []byte) bool {
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", kind, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	// Re-read the status post-subscribe for the freshest snapshot.
	if _, cur, err := s.svc.Job(man.ID); err == nil {
		st = cur
	}
	raw, _ := json.Marshal(st)
	if !writeSSE("status", raw) {
		return
	}
	if st.Terminal() {
		return
	}
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				return // job reached a terminal state
			}
			if !writeSSE(ev.Kind, ev.Data) {
				return
			}
		case <-r.Context().Done():
			return // client went away; the job keeps running
		}
	}
}

// streamLine is one ndjson line of the ephemeral streaming endpoint.
type streamLine struct {
	Type    string         `json:"type"` // "trial", "outcome", "error"
	Trial   *TrialRecord   `json:"trial,omitempty"`
	Outcome *OutcomeRecord `json:"outcome,omitempty"`
	Error   string         `json:"error,omitempty"`
}

// handleEphemeralStream runs a campaign synchronously inside the
// request, streaming per-trial results as chunked ndjson. Nothing is
// persisted; the campaign's trial loop is tied to the request context,
// so a client disconnect cancels it promptly (the Stream
// goroutine-leak test pins this).
func (s *Server) handleEphemeralStream(w http.ResponseWriter, r *http.Request) {
	select {
	case s.streamSlots <- struct{}{}:
		defer func() { <-s.streamSlots }()
	default:
		s.svc.Metrics.Inc(MetricStreamsRejected, 1)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests, fmt.Errorf("stream slots busy, retry later"))
		return
	}
	var spec JobSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode spec: %w", err))
		return
	}
	norm, err := normalizeSpec(spec, s.svc.cfg.BlockTrials)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rt, err := buildRuntime(norm, s.svc.cfg.CampaignWorkers)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)

	// The campaign runs in its own goroutine; the handler pumps results
	// to the client. Cancelling ctx — the request context, so client
	// disconnects count — stops the trial loop, and the channel close
	// unblocks the pump.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	ch := make(chan inject.TrialResult, 64)
	rt.campaign.OnTrial = func(tr inject.TrialResult) {
		select {
		case ch <- tr:
		case <-ctx.Done():
		}
	}
	var out inject.Outcome
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(ch)
		out, runErr = rt.campaign.Run(ctx, rt.inputs)
	}()
	for tr := range ch {
		rec := NewTrialRecord(tr)
		if err := enc.Encode(streamLine{Type: "trial", Trial: &rec}); err != nil {
			cancel() // client went away: stop the trial loop
			break
		}
		if canFlush {
			flusher.Flush()
		}
	}
	for range ch { // drain if the write loop broke early
	}
	<-done
	if runErr != nil {
		_ = enc.Encode(streamLine{Type: "error", Error: runErr.Error()})
		return
	}
	rec := RecordOutcome(out)
	_ = enc.Encode(streamLine{Type: "outcome", Outcome: &rec})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.svc.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"status":      "ok",
		"queue_depth": strconv.Itoa(s.svc.QueueDepth()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.svc.Metrics.WritePrometheus(w)
}
