// Fixture proving the allocfree analyzer is scoped to the hot-path
// packages: the service package schedules events that box payloads and
// allocate and iterate maps freely without diagnostics.
package service

import "tsnoop/internal/sim"

func touch(a0, a1 any, i0 int64) {
	m := make(map[int]int)
	for range m {
	}
}

func serve(k *sim.Kernel) {
	k.AtCall(0, touch, nil, nil, 0)
	k.AfterCall(1, func(a0, a1 any, i0 int64) {}, struct{}{}, nil, 0)
}
