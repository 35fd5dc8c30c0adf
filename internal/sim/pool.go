package sim

// Pool is a free list for the hot-path payloads shared by reference
// (tsnet transaction copies, TS-Snoop address transactions):
// single-threaded, LIFO, zero-on-release.
// Get returns a zeroed *T; Put zeroes the value before recycling it so
// a pooled object can never retain payload references (the one rule
// every call site used to repeat by hand).
type Pool[T any] struct {
	free []*T
}

// Get returns a zeroed value, recycled when possible.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free = p.free[:n-1]
		return v
	}
	return new(T)
}

// Put zeroes v and returns it to the pool.
func (p *Pool[T]) Put(v *T) {
	var zero T
	*v = zero
	p.free = append(p.free, v)
}
