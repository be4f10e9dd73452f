// Package fleet multiplexes N concurrent camera streams over one
// shared, bounded worker pool. Admission is a bounded channel with
// backpressure — when the queue is full Submit fails fast with the
// typed ErrOverloaded instead of queueing unboundedly — and the
// executors read admitted work straight off that channel, so at most
// QueueDepth + Workers items are admitted and not yet finished at any
// moment. Every item carries timing stamps (enqueued, started,
// finished) so callers can attribute frame latency to queueing and
// execution.
//
// The dispatcher is the software analogue of the paper's frame-slot
// arbitration: a fixed fabric (the executor pool) time-shared by
// whichever camera slots have work, with a hard admission bound in
// place of the camera's fixed slot count.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"advdet/internal/par"
)

// Typed admission errors. Both are %w-wrappable sentinels: match with
// errors.Is, never by substring.
var (
	// ErrOverloaded is returned by Submit when the bounded admission
	// queue is full — the fleet is beyond capacity and the caller
	// should shed the frame (drop, retry later, or degrade) rather
	// than queue it.
	ErrOverloaded = errors.New("fleet: overloaded: admission queue full")

	// ErrClosed is returned by Submit after the dispatcher has been
	// closed.
	ErrClosed = errors.New("fleet: dispatcher closed")

	// ErrStreamClosed is returned when a frame is offered to a stream
	// that has been closed. The sentinel lives here so both the fleet
	// layer and the public stream API share one identity.
	ErrStreamClosed = errors.New("fleet: stream closed")
)

// Config shapes a Dispatcher.
type Config struct {
	// Workers is the executor pool size; <= 0 selects
	// runtime.GOMAXPROCS(0) (see par.Workers).
	Workers int
	// QueueDepth bounds the admission channel; a full queue makes
	// Submit fail with ErrOverloaded. <= 0 selects 2×Workers. With
	// every executor busy, exactly QueueDepth more items are admitted.
	QueueDepth int
}

func (c Config) withDefaults() Config {
	c.Workers = par.Workers(c.Workers)
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	return c
}

// Timing is one item's trip through the dispatcher.
type Timing struct {
	Enqueued time.Time // Submit admitted the item to the queue
	Started  time.Time // an executor picked the item up
	Finished time.Time // the item's work function returned
}

// QueueWait is the time spent in the admission queue before an
// executor picked the item up.
func (t Timing) QueueWait() time.Duration { return t.Started.Sub(t.Enqueued) }

// Run is the execution time of the work function itself.
func (t Timing) Run() time.Duration { return t.Finished.Sub(t.Started) }

// item claim states: an item is run at most once, and exactly one of
// the executor (claim) or the abandoning submitter (abandon) wins.
const (
	statePending int32 = iota
	stateClaimed
	stateAbandoned
)

type item struct {
	ctx   context.Context
	run   func(context.Context)
	tm    Timing
	state atomic.Int32
	done  chan struct{}
}

// Stats are the dispatcher's monotonic counters.
type Stats struct {
	Admitted  uint64 // items accepted into the queue
	Rejected  uint64 // items refused with ErrOverloaded
	Executed  uint64 // items whose work function ran
	Abandoned uint64 // items whose submitter gave up before execution
}

// Dispatcher is the shared bounded worker pool behind a bounded
// admission queue. Build with NewDispatcher; Submit is safe for
// concurrent use by any number of streams.
type Dispatcher struct {
	cfg    Config
	in     chan *item // bounded admission queue, read by the executors
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.RWMutex // guards closed against in-flight Submit sends
	closed   bool
	shutdown func()
	once     sync.Once

	admitted  atomic.Uint64
	rejected  atomic.Uint64
	executed  atomic.Uint64
	abandoned atomic.Uint64
}

// NewDispatcher starts the executor goroutines. The
// dispatcher runs until Close, which drains and completes all admitted
// work before returning.
func NewDispatcher(cfg Config) *Dispatcher {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background()) // lint:ctxroot dispatcher-owned lifetime; items carry their submitter's ctx
	d := &Dispatcher{
		cfg:    cfg,
		in:     make(chan *item, cfg.QueueDepth),
		cancel: cancel,
	}
	d.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go d.execLoop(ctx)
	}
	// shutdown is the single joiner for every goroutine spawned above:
	// mark closed so no new Submit can send, close the admission
	// queue, and wait for the executors to drain it. Defined here so
	// the goroutines' lifetime is visible at their spawn site; Close
	// runs it exactly once.
	d.shutdown = func() {
		d.mu.Lock()
		d.closed = true
		d.mu.Unlock()
		close(d.in)
		d.wg.Wait()
		d.cancel()
	}
	return d
}

// Submit admits one unit of work and blocks until it has executed (or
// until ctx is cancelled while the item still waits in queue). The
// work function receives the submitter's ctx and must honour its
// cancellation. On success the item's Timing is returned for latency
// attribution.
//
// Failure modes, all errors.Is-matchable: a pre-cancelled or
// in-queue-cancelled ctx wraps the context error; a full admission
// queue wraps ErrOverloaded; a closed dispatcher wraps ErrClosed. In
// every failure case the work function has not run and never will.
func (d *Dispatcher) Submit(ctx context.Context, run func(context.Context)) (Timing, error) {
	if err := ctx.Err(); err != nil {
		return Timing{}, fmt.Errorf("fleet: submit: %w", err)
	}
	it := &item{ctx: ctx, run: run, done: make(chan struct{})}
	it.tm.Enqueued = time.Now()

	// The RLock spans the closed check and the send so Close (which
	// takes the write lock before closing the channel) can never close
	// the queue out from under an in-flight send.
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return Timing{}, fmt.Errorf("fleet: submit: %w", ErrClosed)
	}
	select {
	case d.in <- it:
		d.mu.RUnlock()
	default:
		d.mu.RUnlock()
		d.rejected.Add(1)
		return Timing{}, fmt.Errorf("fleet: submit: %w", ErrOverloaded)
	}
	d.admitted.Add(1)

	select {
	case <-it.done:
	case <-ctx.Done():
		if it.state.CompareAndSwap(statePending, stateAbandoned) {
			// Won the race against the executor: the item is dead in
			// queue and its work function will never run.
			d.abandoned.Add(1)
			return Timing{}, fmt.Errorf("fleet: submit: abandoned in queue: %w", ctx.Err())
		}
		// An executor already claimed the item; it is running with the
		// (now cancelled) ctx and will finish promptly. Report its
		// completion rather than racing it.
		<-it.done
	}
	return it.tm, nil
}

// execLoop drains the admission queue until Close closes it.
func (d *Dispatcher) execLoop(ctx context.Context) {
	defer d.wg.Done()
	for it := range d.in {
		d.execute(ctx, it)
	}
}

// execute runs one item: the steady-state fleet dispatch path, one
// invocation per admitted frame, so it must stay allocation-free.
// Exactly one of execute (claim) and an abandoning Submit wins the
// item; execute always closes done so the submitter unblocks.
//
// lint:hotpath
func (d *Dispatcher) execute(ctx context.Context, it *item) {
	it.tm.Started = time.Now()
	if ctx.Err() == nil && it.ctx.Err() == nil &&
		it.state.CompareAndSwap(statePending, stateClaimed) {
		it.run(it.ctx)
		d.executed.Add(1)
	}
	it.tm.Finished = time.Now()
	close(it.done)
}

// Close marks the dispatcher closed, drains and completes every
// admitted item, and joins all goroutines. Submit after Close fails
// with ErrClosed. Close is idempotent and safe to call concurrently
// with Submit.
func (d *Dispatcher) Close() {
	d.once.Do(d.shutdown)
}

// Stats returns a snapshot of the dispatcher's counters.
func (d *Dispatcher) Stats() Stats {
	return Stats{
		Admitted:  d.admitted.Load(),
		Rejected:  d.rejected.Load(),
		Executed:  d.executed.Load(),
		Abandoned: d.abandoned.Load(),
	}
}

// Config returns the dispatcher's resolved configuration (defaults
// applied).
func (d *Dispatcher) Config() Config { return d.cfg }
