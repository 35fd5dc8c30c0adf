// Package sim is a fixture stub of the real kernel package: just
// enough surface for the analyzers, which key on these exact names and
// this exact import path.
package sim

type Time int64

type Duration int64

type EventFn func(a0, a1 any, i0 int64)

type Kernel struct{}

func (k *Kernel) Now() Time { return 0 }

func (k *Kernel) AtCall(t Time, fn EventFn, a0, a1 any, i0 int64) { fn(a0, a1, i0) }

func (k *Kernel) AfterCall(d Duration, fn EventFn, a0, a1 any, i0 int64) { fn(a0, a1, i0) }

type Pool[T any] struct{ free []*T }

func (p *Pool[T]) Get() *T { return new(T) }

func (p *Pool[T]) Put(v *T) {}
