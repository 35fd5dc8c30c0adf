package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tsnoop/internal/cluster"
	"tsnoop/internal/harness"
	"tsnoop/internal/spec"
)

// The HTTP surface of the experiment service.
//
//	POST /v1/runs     Spec JSON -> stats.Run JSON (one object)
//	POST /v1/grids    Spec JSON -> NDJSON cell results, presentation order
//	POST /v1/sweeps   {"sweep": kind, "spec": Spec} -> NDJSON sweep points
//	GET  /v1/jobs     all retained jobs
//	GET  /v1/jobs/{id} one job's status, progress, and phase spans
//	GET  /v1/traces   retained request traces, newest first
//	GET  /v1/traces/{id} one request's wall-clock trace
//	GET  /healthz     liveness: version, uptime, store and queue counters
//	GET  /readyz      readiness: 503 before serve is up and during drain
//	GET  /metrics     Prometheus text exposition (format 0.0.4)
//
// Every /v1/runs response carries X-Tsnoop-Key (the spec's canonical
// hash) and X-Tsnoop-Cache: "hit" (served from the store), "join"
// (attached to an identical in-flight job), or "miss" (computed by a
// new job, named by X-Tsnoop-Job). On a cluster member, a run answered
// by another node also carries X-Tsnoop-Remote naming the owning peer.
//
// Every response (any route, any status) carries X-Tsnoop-Trace: the
// request's trace ID, generated at the entry node or propagated from a
// forwarding peer. The finished trace — wall-clock phase spans for
// routing, store lookups, forward hops, queue wait, simulation, and
// store writes — is retained in a bounded per-node ring and served on
// GET /v1/traces/{id}. A forwarded run's response also carries
// X-Tsnoop-Trace-Spans (the owner's span list as JSON), which the
// entry node embeds into its own trace as remote_spans.
// Streaming responses are application/x-ndjson; a mid-stream failure
// appends a final {"error": "..."} line, since the status code has
// already been sent.
//
// /v1/grids and /v1/sweeps pass an admission gate before streaming: a
// node already at its in-flight cell budget answers 429 with a
// Retry-After hint instead of committing to a stream it cannot serve.

// maxBodyBytes bounds request bodies; a Spec is a few hundred bytes.
const maxBodyBytes = 1 << 20

// Cache-disposition values for the X-Tsnoop-Cache header.
const (
	CacheHit  = "hit"
	CacheJoin = "join"
	CacheMiss = "miss"
)

// NewHandler returns the service's HTTP API over sv. Every request is
// counted into the /metrics request series; configuring Config.Logger
// additionally emits one structured access-log record per request.
func NewHandler(sv *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", sv.handleHealthz)
	mux.HandleFunc("GET /readyz", sv.handleReadyz)
	mux.HandleFunc("GET /metrics", sv.handleMetrics)
	mux.HandleFunc("POST /v1/runs", sv.handleRuns)
	mux.HandleFunc("POST /v1/grids", sv.handleGrids)
	mux.HandleFunc("POST /v1/sweeps", sv.handleSweeps)
	mux.HandleFunc("GET /v1/jobs", sv.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", sv.handleJob)
	mux.HandleFunc("GET /v1/traces", sv.handleTraces)
	mux.HandleFunc("GET /v1/traces/{id}", sv.handleTrace)
	return sv.instrument(mux)
}

// httpError writes a one-object JSON error body.
func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// readSpec decodes a (possibly sparse) Spec from the request body.
func readSpec(w http.ResponseWriter, r *http.Request) (spec.Spec, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return spec.Spec{}, false
	}
	s, err := spec.FromJSON(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return spec.Spec{}, false
	}
	return s, true
}

// statusFor maps a Do error to an HTTP status: validation errors are the
// client's fault, cancellations are the client hanging up, anything else
// is the simulation failing.
func statusFor(err error) int {
	if strings.HasPrefix(err.Error(), "spec: ") {
		return http.StatusBadRequest
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusRequestTimeout
	}
	return http.StatusInternalServerError
}

// disposition renders a Result's cache path for the X-Tsnoop-Cache
// header.
func disposition(res Result) string {
	switch {
	case res.Cached:
		return CacheHit
	case res.Shared:
		return CacheJoin
	default:
		return CacheMiss
	}
}

func (sv *Service) handleRuns(w http.ResponseWriter, r *http.Request) {
	s, ok := readSpec(w, r)
	if !ok {
		return
	}
	// A request forwarded by a peer must be answered here: the sender
	// already routed it to this node's shard, and re-routing on a
	// divergent member list would loop.
	do := sv.Do
	if r.Header.Get(cluster.ForwardedHeader) != "" {
		do = sv.DoLocal
	}
	res, err := do(r.Context(), s)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Tsnoop-Key", res.Key)
	h.Set("X-Tsnoop-Cache", disposition(res))
	if res.JobID != "" {
		h.Set("X-Tsnoop-Job", res.JobID)
	}
	if res.Remote != "" {
		h.Set("X-Tsnoop-Remote", res.Remote)
	}
	// Answering a forward: ship this node's span list back so the entry
	// node's trace shows the owner's side of the hop. Headers must go
	// out before the body, so the spans recorded so far are the set.
	if r.Header.Get(cluster.ForwardedHeader) != "" {
		if spans := traceFrom(r.Context()).spansJSON(); spans != "" {
			h.Set(cluster.TraceSpansHeader, spans)
		}
	}
	w.Write(res.Data)
	io.WriteString(w, "\n")
}

// admit passes a streaming request through the cell-budget gate. On a
// shed it answers 429 with a Retry-After hint and returns ok=false; on
// admission the caller must invoke release when the stream ends.
func (sv *Service) admit(w http.ResponseWriter, route string, n int) (release func(), ok bool) {
	release, ok = sv.shed.Admit(route, n)
	if !ok {
		w.Header().Set("Retry-After", strconv.Itoa(sv.shed.RetryAfterSeconds()))
		httpError(w, http.StatusTooManyRequests,
			fmt.Errorf("service: %d in-flight cells at budget, retry later", sv.shed.Stats().Inflight))
	}
	return release, ok
}

// streamNDJSON drives a result stream into an NDJSON response, flushing
// per line so clients see cells as they finish.
func streamNDJSON[T any](w http.ResponseWriter, seq func(yield func(T, error) bool)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for v, err := range seq {
		if err != nil {
			enc.Encode(map[string]string{"error": err.Error()})
			return
		}
		if err := enc.Encode(v); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (sv *Service) handleGrids(w http.ResponseWriter, r *http.Request) {
	s, ok := readSpec(w, r)
	if !ok {
		return
	}
	// An empty benchmark means the paper's five; validate the spec
	// against a concrete one, then every cell's machine (each protocol
	// has its own node limit), so bad requests fail before the stream
	// commits a 200.
	probe := s
	if probe.Benchmark == "" {
		probe.Benchmark = spec.Benchmarks()[0]
	}
	e := harness.FromSpec(s)
	err := probe.Validate()
	if err == nil {
		err = e.ValidateGrid(s.Network)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	release, ok := sv.admit(w, "/v1/grids", len(e.Cells(s.Network)))
	if !ok {
		return
	}
	defer release()
	streamNDJSON(w, sv.StreamGrid(r.Context(), e, s.Network))
}

// sweepRequest is the /v1/sweeps body: a sweep kind plus the base spec
// (the spec's benchmark and network select the swept workload).
type sweepRequest struct {
	Sweep string          `json:"sweep"`
	Spec  json.RawMessage `json:"spec"`
}

func (sv *Service) handleSweeps(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	var req sweepRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("sweep request: %w", err))
		return
	}
	s := spec.Default()
	if len(req.Spec) > 0 {
		if s, err = spec.FromJSON(req.Spec); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
	}
	if err := s.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	e := harness.FromSpec(s)
	sw, err := e.NewSweep(req.Sweep, s.Benchmark, s.Network)
	if err == nil {
		err = sw.Validate()
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	release, ok := sv.admit(w, "/v1/sweeps", len(sw.Points))
	if !ok {
		return
	}
	defer release()
	streamNDJSON(w, sv.StreamPoints(r.Context(), sw.Points))
}

func (sv *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	st, ok := sv.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

func (sv *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(sv.Jobs())
}

// handleTraces lists this node's retained request traces, newest first.
// The in-flight request's own trace is not in the ring yet — traces
// land there only after their response finishes.
func (sv *Service) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(sv.traces.all())
}

func (sv *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr, ok := sv.traces.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown trace %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(tr)
}

// health is the /healthz document.
type health struct {
	Status string `json:"status"`
	// Version is the server's build identifier (tsnoop version); empty
	// when the binary was built without module metadata.
	Version string `json:"version,omitempty"`
	// UptimeSeconds counts whole seconds since the service was built.
	UptimeSeconds int64 `json:"uptime_seconds"`
	// ActiveJobs counts jobs currently queued or running.
	ActiveJobs int        `json:"active_jobs"`
	Store      StoreStats `json:"store"`
	Queue      QueueStats `json:"queue"`
	// Ready mirrors /readyz: false before serve is up and during drain.
	Ready bool `json:"ready"`
	// Cells is the streamed-cell admission gate (budget, in-flight, shed).
	Cells cluster.AdmissionStats `json:"cells"`
	// Cluster is the peer-ring snapshot; omitted on a single node.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
}

func (sv *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	qs := sv.QueueStats()
	ready, _ := sv.Ready()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(health{
		Status:        "ok",
		Version:       sv.version,
		UptimeSeconds: int64(time.Since(sv.started).Seconds()),
		ActiveJobs:    qs.Queued + qs.Running,
		Store:         sv.StoreStats(),
		Queue:         qs,
		Ready:         ready,
		Cells:         sv.ShedStats(),
		Cluster:       sv.ClusterStats(),
	})
}

// handleReadyz is the load-balancer gate, distinct from /healthz: the
// process is alive (healthz answers 200) the whole time readyz says
// 503 — before serve finishes binding its listener and ring, and again
// once a drain begins, so balancers stop routing before the listener
// closes.
func (sv *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready, reason := sv.Ready()
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "unavailable", "reason": reason})
		return
	}
	json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
}
