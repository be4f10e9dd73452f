package advdet

import (
	"fmt"
	"io"
	"sync"

	"advdet/internal/adaptive"
	"advdet/internal/fleet"
	"advdet/internal/ledger"
	"advdet/internal/metrics"
)

// Fleet-scale types and errors, re-exported from internal/fleet and
// internal/metrics.
type (
	// FleetStats are the engine dispatcher's monotonic counters of
	// admitted, rejected, executed and abandoned frames.
	FleetStats = fleet.Stats
	// FleetSnapshot is the engine-wide metrics rollup: per-stream
	// slot-deadline accounting plus the aggregate streams×fps
	// capacity.
	FleetSnapshot = metrics.FleetSnapshot
	// StreamSnapshot is one stream's row in a FleetSnapshot.
	StreamSnapshot = metrics.StreamSnapshot
)

// Typed fleet admission errors — %w-wrapped sentinels, matched with
// errors.Is (never by substring).
var (
	// ErrOverloaded: the engine's bounded admission queue is full; the
	// frame was shed, not queued. Back off or degrade.
	ErrOverloaded = fleet.ErrOverloaded
	// ErrStreamClosed: the frame was offered to a closed stream.
	ErrStreamClosed = fleet.ErrStreamClosed
	// ErrEngineClosed: the engine (its dispatcher) has been closed.
	ErrEngineClosed = fleet.ErrClosed
)

// Engine is the shared half of the fleet-scale API: the immutable
// trained models, the pooled scan scratch and scan-lane budget, and
// the bounded dispatcher every stream's frames are multiplexed over —
// the software analogue of the paper's PL fabric, one set of
// synthesized detection hardware time-shared by many camera slots.
// Everything per-camera (monitor hysteresis, the reconfiguration state
// machine, slot-deadline accounting, per-stream metrics) lives in the
// Streams created from it.
//
// An Engine is safe for concurrent use by all its streams. Close it
// when done to join the dispatcher's goroutines; single-stream callers
// who want none of this machinery should use NewSystem, which spawns
// no goroutines.
type Engine struct {
	adEng  *adaptive.Engine
	disp   *fleet.Dispatcher
	rollup *metrics.Fleet
	// defaults is the engine-scope resolution of NewEngine's options,
	// the base every NewStream resolves from; its err is a misplaced
	// engine option, which fails every NewStream.
	defaults config

	mu     sync.Mutex
	nextID int
	closed bool
	led    *ledger.Ledger
	sealer *fleet.Sealer
}

// NewEngine builds the shared engine over a trained detector set and
// starts its dispatcher. The detectors are treated as immutable from
// here on: every stream scans against the same models, exactly as the
// paper's frame slots execute against the same loaded bitstreams.
//
// The options are the defaults for every stream the engine opens
// (see Option); WithParallelism also sizes the shared scan-lane pool,
// and WithFleetWorkers and WithQueueDepth shape the dispatcher. A
// misplaced option does not stop NewEngine, which has no error
// return; instead every NewStream fails with ErrMisplacedOption.
func NewEngine(dets Detectors, opts ...Option) *Engine {
	cfg := resolve(scopeEngine, defaultConfig(), opts)
	return &Engine{
		adEng:    adaptive.NewEngine(dets, adaptive.EngineConfig{Parallelism: cfg.opt.Parallelism}),
		disp:     fleet.NewDispatcher(cfg.fleet),
		rollup:   metrics.NewFleet(),
		defaults: cfg,
	}
}

// Detectors returns the engine's shared trained models.
func (e *Engine) Detectors() Detectors { return e.adEng.Dets }

// FleetStats returns the dispatcher's admission/execution counters.
func (e *Engine) FleetStats() FleetStats { return e.disp.Stats() }

// FleetSnapshot exports the engine-wide metrics rollup: one row per
// attached stream (slot-deadline hits/misses, deadline-weighted fps)
// and the aggregate streams×fps capacity.
func (e *Engine) FleetSnapshot() FleetSnapshot { return e.rollup.Snapshot() }

// WriteFleetProm writes the fleet rollup in the Prometheus text
// exposition format: per-stream slot-deadline counters labelled by
// stream plus the aggregate capacity gauges.
func (e *Engine) WriteFleetProm(w io.Writer) error { return e.rollup.WriteProm(w) }

// Ledger returns the engine-level tamper-evident ledger, or nil if no
// stream was opened with WithLedger(nil). All enrolled streams chain
// into it (one hash chain per stream) under one Merkle sealer and one
// anchor chain.
func (e *Engine) Ledger() *Ledger {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.led
}

// ledgerLocked lazily builds the shared ledger and starts its
// wall-clock sealer the first time a stream enrolls. Caller holds
// e.mu.
func (e *Engine) ledgerLocked() *ledger.Ledger {
	if e.led == nil {
		e.led = ledger.New(ledger.Config{})
		e.sealer = fleet.NewSealer(e.led.SealOpen, 0)
	}
	return e.led
}

// Close shuts the engine down: in-flight frames complete, the
// dispatcher's goroutines are joined (then the ledger sealer's, which
// seals the tail batch), and every subsequent Stream.Process fails
// with ErrEngineClosed. Close is idempotent. Streams need no separate
// teardown, though closing them first gives a cleaner capacity rollup
// (closed streams stop counting as active).
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	sealer := e.sealer
	e.mu.Unlock()
	e.disp.Close()
	if sealer != nil {
		sealer.Close()
	}
}

// NewStream opens one camera stream on the engine. The stream owns
// every per-camera piece of the paper's architecture — the
// light-condition monitor with hysteresis, the reconfiguration state
// machine with both bitstreams staged, slot-deadline accounting and
// (optionally) a metrics registry — while borrowing the engine's
// shared models and scan lanes for the actual detection work.
//
// The options apply on top of the engine's defaults (see Option). A
// misplaced option, here or on NewEngine, fails with
// ErrMisplacedOption.
//
// A Stream is not safe for concurrent Process calls (a camera delivers
// frames in order); different streams are independent and run
// concurrently through the engine's dispatcher.
func (e *Engine) NewStream(opts ...Option) (*Stream, error) {
	cfg := resolve(scopeStream, e.defaults, opts)
	if cfg.err != nil {
		return nil, fmt.Errorf("advdet: new stream: %w", cfg.err)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("advdet: new stream: %w", ErrEngineClosed)
	}
	id := e.nextID
	e.nextID++
	// The engine-assigned id labels the stream's events and keys its
	// hash chain in the shared ledger; with WithLedger(nil) the stream
	// enrolls in the lazily built engine-level ledger + sealer.
	cfg.opt.StreamID = int32(id)
	if cfg.shared {
		cfg.opt.Ledger = e.ledgerLocked()
	}
	e.mu.Unlock()
	if cfg.name == "" {
		cfg.name = fmt.Sprintf("stream-%d", id)
	}
	sys, err := e.adEng.NewSystem(cfg.opt)
	if err != nil {
		return nil, fmt.Errorf("advdet: new stream %s: %w", cfg.name, err)
	}
	s := &Stream{eng: e, sys: sys, name: cfg.name}
	e.rollup.Attach(cfg.name, cfg.opt.FPS, sys.Metrics())
	return s, nil
}
