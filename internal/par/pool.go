package par

// Pool is a shared scan-lane budget: a counting semaphore that bounds
// how many detection-scan goroutines run at once across every stream
// served by one engine. Each stream still gets byte-identical output
// regardless of how many lanes it is granted (the ForEach determinism
// contract), so the pool only shapes latency, never results — exactly
// like the paper's PL fabric, where a fixed set of pipeline lanes is
// time-shared by whichever frame slots are active.
//
// A nil *Pool means "no shared budget": Acquire grants the full
// request and Release is a no-op, so single-stream callers that never
// build an engine pay nothing.
type Pool struct {
	slots chan struct{}
	size  int
}

// NewPool builds a pool with the given number of lanes; size <= 0
// selects runtime.GOMAXPROCS(0) via Workers.
func NewPool(size int) *Pool {
	size = Workers(size)
	p := &Pool{slots: make(chan struct{}, size), size: size}
	for i := 0; i < size; i++ {
		p.slots <- struct{}{}
	}
	return p
}

// Size reports the total lane count (0 for a nil pool).
func (p *Pool) Size() int {
	if p == nil {
		return 0
	}
	return p.size
}

// Acquire takes between 1 and max lanes and returns how many it got.
// The first lane is acquired blocking — a stream always makes progress
// once admitted, it never spins — and up to max-1 more are topped up
// only if instantly available, so one stream cannot starve the rest by
// waiting for a full-width grant. Callers must Release exactly the
// returned count.
func (p *Pool) Acquire(max int) int {
	if max < 1 {
		max = 1
	}
	if p == nil {
		return max
	}
	<-p.slots
	got := 1
	for got < max {
		select {
		case <-p.slots:
			got++
		default:
			return got
		}
	}
	return got
}

// Release returns n lanes to the pool. Releasing more lanes than were
// acquired is a caller bug and will panic on the channel send once the
// pool overfills; releasing on a nil pool is a no-op.
func (p *Pool) Release(n int) {
	if p == nil || n <= 0 {
		return
	}
	for i := 0; i < n; i++ {
		p.slots <- struct{}{}
	}
}
