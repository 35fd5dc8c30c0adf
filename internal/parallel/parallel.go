// Package parallel provides the deterministic worker-pool primitive
// behind Spec.RunSeeds and the service's streams: jobs are indexed, fan
// out across a bounded set of goroutines, and results are collected in
// index order, so a parallel run renders byte-identically to a serial
// one. Simulations
// are safe to fan out because every job builds its own kernel, RNG, and
// system; the pool only supplies scheduling and ordered collection.
package parallel

import (
	"context"
	"runtime"
)

// Workers normalizes a worker-count knob: values below 1 mean one worker
// per CPU.
func Workers(n int) int {
	if n < 1 {
		return runtime.NumCPU()
	}
	return n
}

// Map evaluates fn(0) .. fn(n-1) across at most workers goroutines and
// returns the results in index order: it collects Stream's sequence.
// workers below 1 uses one worker per CPU; one worker degenerates to a
// plain serial loop.
//
// On failure Map returns the error from the lowest failing index, and
// jobs not yet claimed are skipped (see Stream for why the reported
// error is independent of goroutine scheduling).
func Map[T any](workers, n int, fn func(int) (T, error)) ([]T, error) {
	out := make([]T, 0, max(n, 0))
	for v, err := range Stream(context.Background(), workers, n, fn) {
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
