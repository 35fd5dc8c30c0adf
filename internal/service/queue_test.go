package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsnoop/internal/fault"
	"tsnoop/internal/sim"
	"tsnoop/internal/spec"
	"tsnoop/internal/stats"
)

// testSpec is a small valid spec; vary the seed to get distinct keys.
func testSpec(seed uint64) spec.Spec {
	return spec.New("barnes", spec.WithNodes(4), spec.WithSeed(seed),
		spec.WithWarmup(-1), spec.WithQuota(50))
}

// runOf decodes a result's run for assertions on its fields.
func runOf(t *testing.T, res Result) *stats.Run {
	t.Helper()
	run, err := res.Run()
	if err != nil {
		t.Fatalf("decoding %+v: %v", res, err)
	}
	return run
}

func TestQueueSingleflightsConcurrentIdenticalSpecs(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		calls.Add(1)
		<-gate // hold every simulation in flight until all submitters arrived
		return &stats.Run{Runtime: 4242, MemOps: int64(s.Seed)}, nil
	}
	sv, _ := New(Config{Sim: sim, Workers: 4})

	s := testSpec(7)
	s.Seeds = 2 // the job fans two seeds; dedup must not multiply them

	const submitters = 8
	results := make([]Result, submitters)
	errs := make([]error, submitters)
	var started, finished sync.WaitGroup
	started.Add(submitters)
	finished.Add(submitters)
	for i := 0; i < submitters; i++ {
		go func(i int) {
			started.Done()
			defer finished.Done()
			results[i], errs[i] = sv.Do(context.Background(), s)
		}(i)
	}
	started.Wait()
	time.Sleep(50 * time.Millisecond) // let every submitter reach the flight map
	close(gate)
	finished.Wait()

	if got := calls.Load(); got != int64(s.Seeds) {
		t.Fatalf("identical concurrent submissions ran %d simulations, want %d (one per seed)", got, s.Seeds)
	}
	owners := 0
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("submitter %d: %v", i, errs[i])
		}
		if !results[i].Shared && !results[i].Cached {
			owners++
		}
		if !bytes.Equal(results[i].Data, results[0].Data) {
			t.Fatalf("submitter %d got different bytes", i)
		}
	}
	if owners != 1 {
		t.Fatalf("%d submitters started jobs, want exactly 1", owners)
	}

	// A later identical submission is a pure store hit: no new simulation.
	res, err := sv.Do(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached || calls.Load() != int64(s.Seeds) {
		t.Fatalf("repeat submission: cached=%v calls=%d, want store hit with no new runs", res.Cached, calls.Load())
	}
	if !bytes.Equal(res.Data, results[0].Data) {
		t.Fatal("store hit bytes differ from the computed result")
	}
}

func TestQueueRunsDistinctSpecsIndependently(t *testing.T) {
	var calls atomic.Int64
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		calls.Add(1)
		return &stats.Run{Runtime: 1, MemOps: int64(s.Seed)}, nil
	}
	sv, _ := New(Config{Sim: sim, Workers: 2})
	a, err := sv.Do(context.Background(), testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sv.Do(context.Background(), testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Key == b.Key {
		t.Fatal("distinct specs share a canonical key")
	}
	if bytes.Equal(a.Data, b.Data) {
		t.Fatal("distinct specs returned identical results from the stub")
	}
	if calls.Load() != 2 {
		t.Fatalf("2 distinct specs ran %d simulations", calls.Load())
	}
}

func TestQueueSeedFanOutAndProgress(t *testing.T) {
	var calls atomic.Int64
	seen := make(map[uint64]bool)
	var mu sync.Mutex
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		calls.Add(1)
		mu.Lock()
		seen[s.Seed] = true
		mu.Unlock()
		if s.Seeds != 1 || s.Workers != 1 {
			t.Errorf("sim received a non-unit spec: seeds=%d workers=%d", s.Seeds, s.Workers)
		}
		// Later seeds are faster, so Best must pick the last one.
		return &stats.Run{Runtime: sim.Time(1000 - 10*int64(s.Seed))}, nil
	}
	sv, _ := New(Config{Sim: sim, Workers: 2})
	s := testSpec(5)
	s.Seeds = 4
	res, err := sv.Do(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Fatalf("4 seeds ran %d simulations", calls.Load())
	}
	for seed := uint64(5); seed < 9; seed++ {
		if !seen[seed] {
			t.Errorf("seed %d never simulated", seed)
		}
	}
	if int64(runOf(t, res).Runtime) != 1000-10*8 {
		t.Fatalf("best run = %v, want the minimum-runtime seed (seed 8)", runOf(t, res).Runtime)
	}
	job, ok := sv.Job(res.JobID)
	if !ok {
		t.Fatalf("job %q not retained", res.JobID)
	}
	if job.State != JobDone || job.SeedsDone != 4 || job.SeedsTotal != 4 {
		t.Fatalf("job = %+v, want done with 4/4 seeds", job)
	}
}

func TestQueueFailurePropagatesAndIsNotCached(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		calls.Add(1)
		if calls.Load() == 1 {
			return nil, boom
		}
		return &stats.Run{Runtime: 9}, nil
	}
	sv, _ := New(Config{Sim: sim, Workers: 1})
	s := testSpec(3)
	res, err := sv.Do(context.Background(), s)
	if !errors.Is(err, boom) {
		t.Fatalf("Do = %+v, %v; want the simulation error", res, err)
	}
	// Failures never land in the store, so a retry re-runs and succeeds.
	res, err = sv.Do(context.Background(), s)
	if err != nil || res.Cached {
		t.Fatalf("retry = %+v, %v; want a fresh successful run", res, err)
	}
	jobs := sv.Jobs()
	if len(jobs) != 2 || jobs[0].State != JobFailed || jobs[0].Error == "" || jobs[1].State != JobDone {
		t.Fatalf("job history = %+v, want [failed, done]", jobs)
	}
}

func TestQueueRejectsInvalidSpec(t *testing.T) {
	sv, _ := New(Config{Workers: 1})
	s := testSpec(1)
	s.Protocol = "MOESI"
	if _, err := sv.Do(context.Background(), s); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if len(sv.Jobs()) != 0 {
		t.Fatal("invalid spec created a job")
	}
}

func TestQueueWaiterCancellationLeavesJobRunning(t *testing.T) {
	gate := make(chan struct{})
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		<-gate
		return &stats.Run{Runtime: 11}, nil
	}
	sv, _ := New(Config{Sim: sim, Workers: 1})
	s := testSpec(9)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := sv.Do(ctx, s)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v", err)
	}
	// The job itself keeps running on the base context and lands in the
	// store for the next caller.
	close(gate)
	deadline := time.Now().Add(2 * time.Second)
	for {
		res, err := sv.Do(context.Background(), s)
		if err == nil && res.Cached {
			break
		}
		if err == nil && !res.Cached {
			break // the flight had already been reaped; a fresh run is also correct
		}
		if time.Now().After(deadline) {
			t.Fatalf("result never became available: %+v, %v", res, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Drain waits for jobs whose submitters disconnected — the graceful
// shutdown handshake behind tsnoop serve.
func TestQueueDrainWaitsForOrphanedJobs(t *testing.T) {
	gate := make(chan struct{})
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		<-gate
		return &stats.Run{Runtime: 21}, nil
	}
	sv, _ := New(Config{Sim: sim, Workers: 1})
	s := testSpec(4)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := sv.Do(ctx, s)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel() // the submitter hangs up; the job keeps running
	<-errc

	short, scancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer scancel()
	if err := sv.Drain(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain returned %v while a job was still running", err)
	}
	close(gate)
	if err := sv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after completion: %v", err)
	}
	// The orphaned job's result landed in the store.
	res, err := sv.Do(context.Background(), s)
	if err != nil || !res.Cached {
		t.Fatalf("orphaned job's result not stored: %+v, %v", res, err)
	}
}

// A failed persist degrades, it does not discard: the computed result
// is still served and the store trouble lands on the job status.
func TestQueuePutFailureStillServesResult(t *testing.T) {
	dir := t.TempDir()
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		return &stats.Run{Runtime: 33}, nil
	}
	sv, err := New(Config{Dir: dir, Sim: sim, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := testSpec(6)
	// Occupy the shard path with a regular file so the disk write fails.
	if err := os.WriteFile(filepath.Join(dir, s.Canonical()[:2]), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := sv.Do(context.Background(), s)
	if err != nil {
		t.Fatalf("Do failed on a store-only error: %v", err)
	}
	if int64(runOf(t, res).Runtime) != 33 {
		t.Fatalf("served run = %+v", runOf(t, res))
	}
	job, ok := sv.Job(res.JobID)
	if !ok || job.State != JobDone || job.StoreError == "" {
		t.Fatalf("job = %+v, want done with a store error recorded", job)
	}
	// The LRU still serves the repeat even though the disk write failed.
	res, err = sv.Do(context.Background(), s)
	if err != nil || !res.Cached {
		t.Fatalf("repeat after failed persist = %+v, %v; want an LRU hit", res, err)
	}
}

func TestQueueHistoryEviction(t *testing.T) {
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		return &stats.Run{Runtime: 1}, nil
	}
	sv, _ := New(Config{Sim: sim, Workers: 1, Keep: 3})
	for seed := uint64(1); seed <= 6; seed++ {
		if _, err := sv.Do(context.Background(), testSpec(seed)); err != nil {
			t.Fatal(err)
		}
	}
	jobs := sv.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("history holds %d jobs, want 3", len(jobs))
	}
	if jobs[len(jobs)-1].Spec.Seed != 6 {
		t.Fatalf("newest job lost: %+v", jobs)
	}
}

// TestQueueJobsSortedByID pins the Jobs() ordering contract: snapshots
// come back sorted by id ascending even when the internal history list
// is not in that order.
func TestQueueJobsSortedByID(t *testing.T) {
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		return &stats.Run{Runtime: 1}, nil
	}
	sv, _ := New(Config{Sim: sim, Workers: 2})
	const n = 5
	for seed := uint64(1); seed <= n; seed++ {
		if _, err := sv.Do(context.Background(), testSpec(seed)); err != nil {
			t.Fatal(err)
		}
	}
	// Scramble the internal history list: the explicit sort, not the
	// list's creation order, must produce the contract ordering.
	sv.queue.mu.Lock()
	for i, j := 0, len(sv.queue.order)-1; i < j; i, j = i+1, j-1 {
		sv.queue.order[i], sv.queue.order[j] = sv.queue.order[j], sv.queue.order[i]
	}
	sv.queue.mu.Unlock()
	jobs := sv.Jobs()
	if len(jobs) != n {
		t.Fatalf("retained %d jobs, want %d", len(jobs), n)
	}
	for i, j := range jobs {
		if want := fmt.Sprintf("job-%06d", i+1); j.ID != want {
			t.Fatalf("jobs[%d].ID = %s, want %s", i, j.ID, want)
		}
	}
}

// A transient panic — poison that clears on recompute — is retried once
// and recovers invisibly: the job succeeds and only the counter records
// that anything happened.
func TestQueuePanicIsolatedAndRetried(t *testing.T) {
	var calls atomic.Int64
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		if calls.Add(1) == 1 {
			panic("transient poison")
		}
		return &stats.Run{Runtime: 55}, nil
	}
	sv, _ := New(Config{Sim: sim, Workers: 2})
	res, err := sv.Do(context.Background(), testSpec(1))
	if err != nil {
		t.Fatalf("Do after a transient panic: %v", err)
	}
	if int64(runOf(t, res).Runtime) != 55 {
		t.Fatalf("retried run = %+v", runOf(t, res))
	}
	job, ok := sv.Job(res.JobID)
	if !ok || job.State != JobDone {
		t.Fatalf("job = %+v, want done", job)
	}
	if got := sv.QueueStats().PanicsRecovered; got != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", got)
	}
}

// A deterministic panic fails its one job — with the panic value and
// stack on the error — and leaves the queue alive for other specs.
func TestQueuePersistentPanicFailsOneJob(t *testing.T) {
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		if s.Seed == 3 {
			panic("poisoned spec")
		}
		return &stats.Run{Runtime: 66}, nil
	}
	sv, _ := New(Config{Sim: sim, Workers: 1})

	res, err := sv.Do(context.Background(), testSpec(3))
	if err == nil {
		t.Fatalf("poisoned spec succeeded: %+v", res)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a PanicError: %v", err)
	}
	if !strings.Contains(err.Error(), "poisoned spec") || !strings.Contains(err.Error(), "simOnce") {
		t.Fatalf("error lacks the panic value or stack: %v", err)
	}
	jobs := sv.Jobs()
	if len(jobs) != 1 || jobs[0].State != JobFailed || !strings.Contains(jobs[0].Error, "panicked") {
		t.Fatalf("job history = %+v, want one failed job recording the panic", jobs)
	}
	// Initial attempt + retry both recovered.
	if got := sv.QueueStats().PanicsRecovered; got != 2 {
		t.Fatalf("PanicsRecovered = %d, want 2 (attempt + retry)", got)
	}
	// The process — and the queue — survive: a healthy spec still runs.
	res, err = sv.Do(context.Background(), testSpec(4))
	if err != nil || int64(runOf(t, res).Runtime) != 66 {
		t.Fatalf("healthy spec after a panic = %+v, %v", res, err)
	}
}

// The queue.seed.panic failpoint drives the same recovery machinery: an
// injected one-shot panic retries invisibly and the job's bytes match an
// uninjected run.
func TestQueueInjectedSeedPanicFault(t *testing.T) {
	t.Cleanup(fault.Disable)
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		return &stats.Run{Runtime: 77, MemOps: int64(s.Seed)}, nil
	}
	clean, _ := New(Config{Sim: sim, Workers: 2})
	ref, err := clean.Do(context.Background(), testSpec(8))
	if err != nil {
		t.Fatal(err)
	}

	fs, err := fault.Parse("seed=1;queue.seed.panic=times:1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(fs)
	sv, _ := New(Config{Sim: sim, Workers: 2})
	res, err := sv.Do(context.Background(), testSpec(8))
	if err != nil {
		t.Fatalf("Do under an injected panic: %v", err)
	}
	if !bytes.Equal(res.Data, ref.Data) {
		t.Fatalf("injected-panic bytes %q differ from clean bytes %q", res.Data, ref.Data)
	}
	if got := sv.QueueStats().PanicsRecovered; got != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", got)
	}
}

// The queue.seed.slow failpoint delays a seed without changing its
// result bytes.
func TestQueueInjectedSlowSeedFault(t *testing.T) {
	t.Cleanup(fault.Disable)
	fs, err := fault.Parse("seed=1;queue.seed.slow=times:1@30ms")
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(fs)
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		return &stats.Run{Runtime: 88}, nil
	}
	sv, _ := New(Config{Sim: sim, Workers: 1})
	start := time.Now()
	res, err := sv.Do(context.Background(), testSpec(2))
	if err != nil || int64(runOf(t, res).Runtime) != 88 {
		t.Fatalf("Do under injected latency = %+v, %v", res, err)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("injected seed delay did not slow the job")
	}
}
