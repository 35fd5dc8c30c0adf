package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tsnoop/internal/fault"
	"tsnoop/internal/parallel"
	"tsnoop/internal/spec"
	"tsnoop/internal/stats"
)

// SimFunc executes exactly one simulation: a validated spec with
// Seeds == 1 and Workers == 1 (the queue fans seeds out through
// Spec.RunSeeds). The default is Spec.RunContext; tests inject counting
// or gated stubs.
type SimFunc func(ctx context.Context, s spec.Spec) (*stats.Run, error)

// Job states, in lifecycle order.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobStatus is the externally visible snapshot of one job — what
// GET /v1/jobs/{id} returns.
type JobStatus struct {
	ID    string    `json:"id"`
	Key   string    `json:"key"`
	State string    `json:"state"`
	Spec  spec.Spec `json:"spec"`
	// SeedsDone / SeedsTotal expose per-job progress at simulation
	// granularity: a 20-seed job reports each finished seed.
	SeedsDone  int `json:"seeds_done"`
	SeedsTotal int `json:"seeds_total"`
	// Waiters counts requests deduplicated onto this job beyond the one
	// that started it.
	Waiters int    `json:"waiters"`
	Error   string `json:"error,omitempty"`
	// TraceID links the job to the request trace that started it (see
	// GET /v1/traces/{id}); empty when the submitter was untraced
	// (direct library use, the local CLI subcommands).
	TraceID string `json:"trace_id,omitempty"`
	// StoreError records a failed persist of an otherwise successful
	// job: the result was still served (and the LRU still has it), only
	// the disk write failed.
	StoreError string    `json:"store_error,omitempty"`
	Created    time.Time `json:"created"`
	Finished   time.Time `json:"finished,omitzero"`
	// Spans break the job's wall-clock life into phases; each fills in as
	// the phase completes, so a running job already shows its queue wait.
	Spans JobSpans `json:"spans"`
}

// JobSpans are per-job phase timings in microseconds of wall clock:
// how long the job sat queued before its first seed started, how long
// simulation (all seeds, plus result encoding) took, and how long the
// store write took. Wall-clock time never reaches the simulator — these
// time the service around it.
type JobSpans struct {
	QueueWaitUS  int64 `json:"queue_wait_us"`
	SimulateUS   int64 `json:"simulate_us"`
	StoreWriteUS int64 `json:"store_write_us"`
}

// job is the mutable record behind a JobStatus.
type job struct {
	mu     sync.Mutex
	status JobStatus
}

func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

func (j *job) start(total int, now time.Time) {
	j.mu.Lock()
	j.status.State = JobRunning
	j.status.SeedsTotal = total
	j.status.Spans.QueueWaitUS = now.Sub(j.status.Created).Microseconds()
	j.mu.Unlock()
}

func (j *job) setSpans(simulate, storeWrite time.Duration) {
	j.mu.Lock()
	j.status.Spans.SimulateUS = simulate.Microseconds()
	j.status.Spans.StoreWriteUS = storeWrite.Microseconds()
	j.mu.Unlock()
}

func (j *job) seedDone() {
	j.mu.Lock()
	j.status.SeedsDone++
	j.mu.Unlock()
}

func (j *job) addWaiter() {
	j.mu.Lock()
	j.status.Waiters++
	j.mu.Unlock()
}

func (j *job) finish(err, storeErr error, now time.Time) {
	j.mu.Lock()
	j.status.Finished = now
	if err != nil {
		j.status.State, j.status.Error = JobFailed, err.Error()
	} else {
		j.status.State = JobDone
	}
	if storeErr != nil {
		j.status.StoreError = storeErr.Error()
	}
	j.mu.Unlock()
}

// Result is one answered experiment: the stable Run JSON (byte-identical
// across store hits, in-flight joins, and the original computation) and
// how the answer was produced.
type Result struct {
	// Key is the spec's canonical content address.
	Key string
	// JobID names the job that computed (or is computing) the result;
	// empty when the store answered directly.
	JobID string
	// Data is the canonical stats.Run JSON.
	Data []byte
	// Cached reports a result served from the store without any job.
	Cached bool
	// Shared reports a result obtained by joining an identical in-flight
	// job (singleflight) rather than starting a new one.
	Shared bool
	// Remote names the owning peer that answered a forwarded miss;
	// empty when this node answered from its own store or queue.
	Remote string
}

// Run decodes Data, for callers that need the structured result.
func (r Result) Run() (*stats.Run, error) { return decodeRun(r.Data) }

// flight is one in-progress computation of a key. Duplicate submissions
// join the flight instead of re-simulating.
type flight struct {
	job  *job
	done chan struct{} // closed once data/err are final
	data []byte
	err  error
}

// Queue is the dedup job scheduler behind Service.Do's store misses:
// identical in-flight specs are singleflighted onto one job, distinct
// specs fan out across a bounded simulation pool (internal/parallel
// semantics: one slot per concurrent simulation), finished results land
// in the content-addressed store, and every job exposes per-seed
// progress.
//
// A job, once started, runs on the queue's base context rather than the
// submitting request's: a client that disconnects mid-run does not
// cancel work other clients may have joined, and the result still lands
// in the store. Cancelling the base context (queue shutdown) stops
// everything.
type Queue struct {
	store *Store
	sim   SimFunc
	base  context.Context
	slots chan struct{}
	keep  int

	// inflight counts started flights; Drain waits on it so shutdown
	// never kills a simulation whose submitter already disconnected.
	inflight sync.WaitGroup

	// panics counts recovered seed-worker panics (each recovery, so a
	// retried-then-persisted panic counts twice) — the
	// tsnoop_panics_recovered_total signal.
	panics atomic.Int64

	mu      sync.Mutex
	flights map[string]*flight
	jobs    map[string]*job
	order   []string // job IDs in creation order, for history eviction
	nextID  int64
}

// DefaultKeep is the finished-job history bound when Config.Keep is 0.
const DefaultKeep = 1024

// newQueue builds a queue over a store. workers bounds concurrent
// simulations (0 = one per CPU); keep bounds the retained finished-job
// history (0 = DefaultKeep); sim is the single-simulation executor
// (nil = Spec.RunContext); base is the lifecycle context jobs run on
// (nil = context.Background()).
func newQueue(store *Store, workers, keep int, sim SimFunc, base context.Context) *Queue {
	if sim == nil {
		sim = func(ctx context.Context, s spec.Spec) (*stats.Run, error) { return s.RunContext(ctx) }
	}
	if base == nil {
		base = context.Background()
	}
	if keep <= 0 {
		keep = DefaultKeep
	}
	return &Queue{
		store:   store,
		sim:     sim,
		base:    base,
		slots:   make(chan struct{}, parallel.Workers(workers)),
		keep:    keep,
		flights: make(map[string]*flight),
		jobs:    make(map[string]*job),
	}
}

// compute answers a validated, telemetry-stripped spec whose key the
// store missed: by joining an identical in-flight job if one is
// running, and by scheduling a new job otherwise. The returned Data is
// byte-identical either way. ctx bounds only this caller's wait — an
// already-started job keeps running for other waiters and the store.
func (q *Queue) compute(ctx context.Context, key string, s spec.Spec) (Result, error) {
	q.mu.Lock()
	if f, ok := q.flights[key]; ok {
		f.job.addWaiter()
		q.mu.Unlock()
		return q.wait(ctx, key, f, true)
	}
	f := &flight{job: q.newJobLocked(key, s, TraceID(ctx)), done: make(chan struct{})}
	q.flights[key] = f
	q.inflight.Add(1)
	q.mu.Unlock()
	go q.execute(f, s, key)
	return q.wait(ctx, key, f, false)
}

// wait blocks until the flight completes or the caller's context fires.
func (q *Queue) wait(ctx context.Context, key string, f *flight, shared bool) (Result, error) {
	select {
	case <-f.done:
		if f.err != nil {
			return Result{}, f.err
		}
		st := f.job.snapshot()
		// The job's wall-clock phases tile into the waiting request's
		// trace; a joined request shows the shared job's phases too.
		traceFrom(ctx).phases(st.ID, st.Spans)
		return Result{Key: key, JobID: st.ID, Data: f.data, Shared: shared}, nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// newJobLocked registers a new job record; q.mu must be held. Finished
// jobs past the history bound are evicted oldest-first (jobs still
// queued or running are never evicted).
func (q *Queue) newJobLocked(key string, s spec.Spec, traceID string) *job {
	q.nextID++
	j := &job{status: JobStatus{
		ID:      fmt.Sprintf("job-%06d", q.nextID),
		Key:     key,
		State:   JobQueued,
		Spec:    s,
		TraceID: traceID,
		Created: time.Now().UTC(),
	}}
	q.jobs[j.status.ID] = j
	q.order = append(q.order, j.status.ID)
	for len(q.order) > q.keep {
		evicted := false
		for i, id := range q.order {
			st := q.jobs[id].snapshot().State
			if st == JobDone || st == JobFailed {
				delete(q.jobs, id)
				q.order = append(q.order[:i], q.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything live; let the history run long rather than lose live jobs
		}
	}
	return j
}

// execute runs one flight to completion on the queue's base context and
// publishes the result to the store and to every waiter.
func (q *Queue) execute(f *flight, s spec.Spec, key string) {
	defer func() {
		q.mu.Lock()
		delete(q.flights, key)
		q.mu.Unlock()
		close(f.done)
		q.inflight.Done()
	}()
	simStart := time.Now()
	run, err := q.runSeeds(q.base, s, f.job)
	if err == nil {
		f.data, err = json.Marshal(run)
	}
	simDur := time.Since(simStart)
	if err != nil {
		f.err = err
		f.data = nil
		f.job.setSpans(simDur, 0)
		f.job.finish(err, nil, time.Now().UTC())
		return
	}
	// A failed persist (full or read-only directory) must not discard a
	// computed result: serve it, keep it in the LRU, and surface the
	// store trouble on the job instead of degrading every client to 500s.
	putStart := time.Now()
	storeErr := q.store.Put(key, f.data)
	f.job.setSpans(simDur, time.Since(putStart))
	f.job.finish(nil, storeErr, time.Now().UTC())
}

// Drain blocks until every in-flight job has finished (or ctx fires) —
// the graceful-shutdown handshake: jobs whose submitters disconnected
// still run to completion and land in the store before the process
// exits.
func (q *Queue) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		q.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runSeeds runs the spec's seed fan-out (Spec.RunSeeds) with every seed
// taking one slot of the shared simulation pool, so the concurrency
// bound holds across all jobs. The slots, not the spec's Workers, bound
// the seeds, so all of them wait for a slot at once.
func (q *Queue) runSeeds(ctx context.Context, s spec.Spec, j *job) (*stats.Run, error) {
	j.start(s.Seeds, time.Now())
	s.Workers = s.Seeds
	return s.RunSeeds(ctx, func(ctx context.Context, one spec.Spec) (*stats.Run, error) {
		select {
		case q.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		defer func() { <-q.slots }()
		r, err := q.simSafe(ctx, one)
		if err == nil {
			j.seedDone()
		}
		return r, err
	})
}

// PanicError is a seed-worker panic recovered into a job error: the
// panic value plus the goroutine stack captured at recovery, so a
// poisoned spec is diagnosable from the job record instead of from a
// crashed process.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("simulation panicked: %v\n%s", e.Value, e.Stack)
}

// simSafe runs one seed's simulation with panic isolation. A panic is
// recovered into a *PanicError — one poisoned spec fails one job, never
// the process — and the seed is retried once: transient poison (a
// corrupted input that recomputes clean, an injected fault) recovers
// invisibly, while a deterministic panic fails the job with the
// captured stack.
func (q *Queue) simSafe(ctx context.Context, s spec.Spec) (*stats.Run, error) {
	r, err := q.simOnce(ctx, s)
	var pe *PanicError
	if errors.As(err, &pe) && ctx.Err() == nil {
		r, err = q.simOnce(ctx, s)
		if errors.As(err, &pe) {
			err = fmt.Errorf("service: seed panic persisted after retry: %w", pe)
		}
	}
	return r, err
}

// simOnce executes exactly one simulation, converting a panic into an
// error and applying the queue's failpoints (injected worker panics
// and slow seeds).
func (q *Queue) simOnce(ctx context.Context, s spec.Spec) (r *stats.Run, err error) {
	defer func() {
		if v := recover(); v != nil {
			q.panics.Add(1)
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if f := fault.Active(); f != nil {
		if d := f.Delay(fault.QueueSeedSlow); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
		}
		if f.Fire(fault.QueueSeedPanic) {
			panic("fault: injected seed panic")
		}
	}
	return q.sim(ctx, s)
}

// Job returns the status snapshot of one job.
func (q *Queue) Job(id string) (JobStatus, bool) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	q.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.snapshot(), true
}

// Jobs snapshots every retained job, sorted by id ascending — the
// GET /v1/jobs contract. IDs are sequential ("job-%06d"), so this is
// also creation order today; the explicit sort pins the contract
// rather than leaning on how the history list happens to be
// maintained. Shorter ids sort first so the order survives the id
// counter outgrowing its zero padding.
func (q *Queue) Jobs() []JobStatus {
	q.mu.Lock()
	ids := append([]string(nil), q.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, q.jobs[id])
	}
	q.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.snapshot())
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].ID, out[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out
}

// QueueStats counts retained jobs by state plus total dedup joins.
type QueueStats struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	Joined  int `json:"joined"` // requests answered by joining an in-flight job
	// PanicsRecovered counts seed-worker panics recovered into job
	// errors (or invisible retries) instead of process deaths.
	PanicsRecovered int64 `json:"panics_recovered"`
}

// Stats snapshots the queue's counters.
func (q *Queue) Stats() QueueStats {
	var qs QueueStats
	for _, j := range q.Jobs() {
		switch j.State {
		case JobQueued:
			qs.Queued++
		case JobRunning:
			qs.Running++
		case JobDone:
			qs.Done++
		case JobFailed:
			qs.Failed++
		}
		qs.Joined += j.Waiters
	}
	qs.PanicsRecovered = q.panics.Load()
	return qs
}

// decodeRun parses stored Run JSON.
func decodeRun(data []byte) (*stats.Run, error) {
	run := new(stats.Run)
	if err := json.Unmarshal(data, run); err != nil {
		return nil, err
	}
	return run, nil
}
