// Package service is the one execution path for experiments: every
// run, grid cell, sweep point, and Table 3 row is a spec answered
// through Do (a Stream of specs for the grids, sweeps, and tables the
// internal/harness package describes), so identical specs are never
// re-simulated. Three pieces compose:
//
//   - a content-addressed result store (Store): spec.Canonical() hashes
//     the normalized Spec, and a disk-backed, shard-per-prefix layout
//     with an in-memory LRU in front maps hash -> stats.Run JSON, so any
//     previously computed experiment is served without simulation and
//     byte-identically to its first computation;
//
//   - a dedup job queue (Queue): identical in-flight specs singleflight
//     onto one job, distinct specs fan their perturbed seeds across a
//     bounded simulation pool, and every job exposes per-seed progress;
//
//   - an HTTP API (NewHandler): POST /v1/runs answers one Spec with its
//     Run JSON, POST /v1/grids and /v1/sweeps stream NDJSON cells in
//     presentation order as they finish, GET /v1/jobs/{id} reports
//     progress, and GET /healthz reports store and queue counters.
//
// Do is the one answer path: it validates and keys a spec, probes the
// store once, and hands a miss to the queue. A Service optionally joins
// a cluster (internal/cluster): a static consistent-hash ring shards the
// canonical key space across N serve processes, a miss whose key another
// member owns is forwarded there in one attempt (so the dedup queue's
// singleflight stays global, not per-node), the returned result is
// replicated into this node's LRU front, and a failed forward degrades
// to local compute — the stream never fails and never changes a byte.
//
// The same bar holds under faults (internal/fault injects them
// deterministically): store entries carry a per-entry checksum and a
// corrupt or truncated file is quarantined and recomputed, a panicking
// simulation is recovered into its one job's error and retried once,
// and a repeatedly failing peer trips a per-peer circuit breaker that
// routes around it until a cooldown probe heals. Every degradation
// costs recomputation, never a changed client byte — the chaos test in
// chaos_test.go holds a 3-node cluster under a seeded fault schedule
// to the single-node reference bytes.
//
// cmd/tsnoop wires this up as the serve and submit subcommands, and its
// run, grid, sweep, and tables subcommands execute through a local
// Service — memory-only, or over the store a -cache flag names.
package service

import (
	"context"
	"errors"
	"iter"
	"log/slog"
	"sync"
	"time"

	"tsnoop/internal/cluster"
	"tsnoop/internal/harness"
	"tsnoop/internal/parallel"
	"tsnoop/internal/spec"
	"tsnoop/internal/stats"
)

// Config parameterizes a Service.
type Config struct {
	// Dir is the result store directory; empty keeps results in memory
	// only (the LRU still serves repeats, nothing persists).
	Dir string
	// LRU bounds the in-memory result cache entries (0 = DefaultLRU).
	LRU int
	// Workers bounds concurrent simulations across all jobs
	// (0 = one per CPU).
	Workers int
	// Keep bounds the retained finished-job history (0 = DefaultKeep).
	Keep int
	// Sim executes one simulation (nil = Spec.RunContext); tests inject
	// stubs to count or gate executions.
	Sim SimFunc
	// BaseContext is the lifecycle context started jobs run on (nil =
	// context.Background()): a CLI passes its interrupt context so
	// Ctrl-C cancels simulations, a server passes its own lifetime so
	// request disconnects do not.
	BaseContext context.Context
	// Version is the build identifier /healthz reports (empty = omitted).
	Version string
	// Logger, when non-nil, receives one structured access-log record per
	// HTTP request (method, path, status, bytes, duration). Nil disables
	// access logging; the /metrics counters run either way.
	Logger *slog.Logger
	// Cluster federates this node into a static peer ring (nil = single
	// node): misses whose canonical key another member owns are
	// forwarded there and the result rides back into this node's LRU.
	Cluster *cluster.Cluster
	// MaxCells bounds this node's in-flight streamed cells on /v1/grids
	// and /v1/sweeps; past it new streams are refused with 429 +
	// Retry-After (0 = cluster.DefaultMaxCells, negative = unlimited).
	MaxCells int
}

// Service is the experiment service: a store fronted by a dedup queue,
// with grid, sweep, and table streaming over the same Do path.
type Service struct {
	store   *Store
	queue   *Queue
	cluster *cluster.Cluster
	shed    *cluster.Admission

	version string
	logger  *slog.Logger
	started time.Time
	httpm   httpMetrics
	traces  *traceRing

	// readiness gates /readyz: a node reports 503 before serve marks it
	// ready (listener + ring up) and again once a drain begins, so load
	// balancers stop routing before the listener closes.
	readyMu     sync.Mutex
	ready       bool
	readyReason string
}

// New opens the store and builds the queue.
func New(cfg Config) (*Service, error) {
	store, err := OpenStore(cfg.Dir, cfg.LRU)
	if err != nil {
		return nil, err
	}
	budget := cfg.MaxCells
	if budget == 0 {
		budget = cluster.DefaultMaxCells
	}
	if budget < 0 {
		budget = 0 // unlimited
	}
	return &Service{
		store:       store,
		queue:       newQueue(store, cfg.Workers, cfg.Keep, cfg.Sim, cfg.BaseContext),
		cluster:     cfg.Cluster,
		shed:        cluster.NewAdmission(budget, "/v1/grids", "/v1/sweeps"),
		version:     cfg.Version,
		logger:      cfg.Logger,
		started:     time.Now(),
		traces:      newTraceRing(DefaultTraceKeep),
		readyReason: "starting",
	}, nil
}

// Do answers one spec: from the store if the result exists, by joining
// an identical in-flight job if one is running, and by scheduling a new
// job otherwise. On a cluster member a miss is routed first — keys this
// node owns are computed locally, keys on another member's shard are
// forwarded once to the owner, so identical submissions entering
// anywhere in the fleet singleflight onto one simulation. A failed
// forward or a dead owner degrades to local compute: the answer is
// byte-identical either way, only the forward-error counter moves.
func (sv *Service) Do(ctx context.Context, s spec.Spec) (Result, error) {
	return sv.do(ctx, s, false)
}

// DoLocal answers one spec on this node regardless of ring ownership —
// the path forwarded peer requests take, so a forward can never loop
// even while two nodes momentarily disagree about the member list.
func (sv *Service) DoLocal(ctx context.Context, s spec.Spec) (Result, error) {
	return sv.do(ctx, s, true)
}

// do is the one answer path: validate, key, and probe the store once,
// then forward at most once, then compute.
func (sv *Service) do(ctx context.Context, s spec.Spec, local bool) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	// The store's contract is byte-identical payloads per canonical key,
	// and Normalize clears the metrics and spans knobs (an instrumented
	// run is the same experiment), so an instrumented rendering could
	// collide with the plain one under the same key. The service answers
	// the experiment; telemetry stays a local-CLI concern.
	s.Metrics = false
	s.Spans = false
	at := traceFrom(ctx)
	key := s.Canonical()
	getStart := time.Now()
	data, ok, err := sv.store.Get(key)
	if err != nil {
		return Result{}, err
	}
	if ok {
		// A replicated hot entry or an earlier local-fallback compute
		// answers here too, without a network hop.
		at.span("store_get", getStart, "hit")
		return Result{Key: key, Data: data, Cached: true}, nil
	}
	at.span("store_get", getStart, "miss")
	if sv.cluster != nil && !local {
		if res, ok := sv.forward(ctx, key, s); ok {
			return res, nil
		}
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	return sv.queue.compute(ctx, key, s)
}

// forward routes a missed key and, when another member owns it, makes
// one forward attempt. ok is false when this node must compute the
// answer itself: it owns the key, the owner's breaker is open, the
// forward failed, or the owner answered garbage. A failure is already
// on the cluster counters (cluster_forward_error) and the breaker; a
// dead peer costs a local simulation, never a failed stream.
func (sv *Service) forward(ctx context.Context, key string, s spec.Spec) (res Result, ok bool) {
	at := traceFrom(ctx)
	routeStart := time.Now()
	owner, remote := sv.cluster.Route(key)
	if !remote {
		at.span("route", routeStart, "local shard")
		return Result{}, false
	}
	at.span("route", routeStart, "owner "+owner)
	fwdStart := time.Now()
	fwd, err := sv.cluster.Forward(ctx, owner, s.JSON(), TraceID(ctx))
	if errors.Is(err, cluster.ErrBreakerOpen) {
		// A skip is counted on the breaker, not as a forward error.
		at.span("forward", fwdStart, "breaker open, computing locally")
		return Result{}, false
	}
	if err != nil {
		at.span("forward", fwdStart, "error, degrading to local: "+err.Error())
		return Result{}, false
	}
	if _, err := decodeRun(fwd.Data); err != nil {
		// A peer that answers garbage degrades exactly like a dead one —
		// and Suspect feeds the breaker, so a peer that keeps doing it
		// trips open despite its "successful" HTTP exchanges.
		sv.cluster.Suspect(owner)
		at.span("forward", fwdStart, "unreadable answer, degrading to local")
		return Result{}, false
	}
	at.span("forward", fwdStart, owner+" "+fwd.Disposition)
	at.setRemote(owner, fwd.RemoteSpans)
	remStart := time.Now()
	sv.store.Remember(key, fwd.Data)
	sv.cluster.Replicate()
	at.span("replicate", remStart, "")
	return Result{
		Key:    key,
		Data:   fwd.Data,
		Remote: owner,
		Cached: fwd.Disposition == CacheHit,
		Shared: fwd.Disposition == CacheJoin,
	}, true
}

// SetReady flips the /readyz gate. serve marks the node ready once the
// listener and ring are up, and not-ready (reason "draining") when
// shutdown begins.
func (sv *Service) SetReady(ready bool, reason string) {
	sv.readyMu.Lock()
	sv.ready, sv.readyReason = ready, reason
	sv.readyMu.Unlock()
}

// Ready reports the /readyz gate and, when not ready, why.
func (sv *Service) Ready() (bool, string) {
	sv.readyMu.Lock()
	defer sv.readyMu.Unlock()
	return sv.ready, sv.readyReason
}

// ClusterStats snapshots the cluster counters (nil when single-node).
func (sv *Service) ClusterStats() *cluster.Stats {
	if sv.cluster == nil {
		return nil
	}
	st := sv.cluster.Stats()
	return &st
}

// ShedStats snapshots the streamed-cell admission gate.
func (sv *Service) ShedStats() cluster.AdmissionStats { return sv.shed.Stats() }

// Drain blocks until every in-flight job has finished (or ctx fires);
// see Queue.Drain.
func (sv *Service) Drain(ctx context.Context) error { return sv.queue.Drain(ctx) }

// Job returns one job's status snapshot.
func (sv *Service) Job(id string) (JobStatus, bool) { return sv.queue.Job(id) }

// Jobs snapshots every retained job in creation order.
func (sv *Service) Jobs() []JobStatus { return sv.queue.Jobs() }

// StoreStats snapshots the store counters.
func (sv *Service) StoreStats() StoreStats { return sv.store.Stats() }

// QueueStats snapshots the queue counters.
func (sv *Service) QueueStats() QueueStats { return sv.queue.Stats() }

// Stream answers every spec through Do and yields the results in spec
// order, each as soon as it and every earlier one are ready; collecting
// the stream is byte-identical at any worker count. Specs already in
// the store are served instantly, identical concurrent specs are
// singleflighted, and fresh results land in the store for next time.
// The first error (in spec order) ends the stream; cancelling ctx stops
// waiting and yields ctx's error.
func (sv *Service) Stream(ctx context.Context, specs []spec.Spec) iter.Seq2[Result, error] {
	// One goroutine per spec: actual simulation concurrency is bounded
	// by the queue's slot pool, and slot-waiting goroutines are cheap.
	return parallel.Stream(ctx, len(specs), len(specs), func(i int) (Result, error) {
		return sv.Do(ctx, specs[i])
	})
}

// project streams specs through Stream and maps each answer onto the
// value its spec describes.
func project[T any](sv *Service, ctx context.Context, specs []spec.Spec, f func(i int, run *stats.Run) T) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		i := 0
		for res, err := range sv.Stream(ctx, specs) {
			var v T
			if err == nil {
				var run *stats.Run
				if run, err = res.Run(); err == nil {
					v = f(i, run)
				}
			}
			if !yield(v, err) || err != nil {
				return
			}
			i++
		}
	}
}

// StreamGrid streams one network's grid cells in presentation order,
// each answered as its CellSpec through Stream.
func (sv *Service) StreamGrid(ctx context.Context, e harness.Experiment, network string) iter.Seq2[harness.CellResult, error] {
	cells := e.Cells(network)
	specs := make([]spec.Spec, len(cells))
	for i, c := range cells {
		specs[i] = e.CellSpec(c)
	}
	return project(sv, ctx, specs, func(i int, run *stats.Run) harness.CellResult {
		return harness.CellResult{Cell: cells[i], Best: run}
	})
}

// StreamPoints streams sweep points in spec order, each answered
// through Stream.
func (sv *Service) StreamPoints(ctx context.Context, pts []harness.PointSpec) iter.Seq2[harness.SweepPoint, error] {
	specs := make([]spec.Spec, len(pts))
	for i, p := range pts {
		specs[i] = p.Spec
	}
	return project(sv, ctx, specs, func(i int, run *stats.Run) harness.SweepPoint {
		return pts[i].Result(run)
	})
}

// Table3 answers the Table 3 rows in benchmark order, each as its
// Table3Specs spec through Stream.
func (sv *Service) Table3(ctx context.Context, e harness.Experiment) ([]harness.Table3Row, error) {
	specs := e.Table3Specs()
	var rows []harness.Table3Row
	for res, err := range sv.Stream(ctx, specs) {
		if err != nil {
			return nil, err
		}
		run, err := res.Run()
		if err != nil {
			return nil, err
		}
		row, err := harness.NewTable3Row(specs[len(rows)], run)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
