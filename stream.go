package advdet

import (
	"context"
	"fmt"
	"sync"

	"advdet/internal/metrics"
)

// Stream is one camera's view of a shared Engine: the per-stream
// adaptive state (monitor, reconfiguration state machine, slot clock,
// stats, optional metrics registry) behind a frame-at-a-time API whose
// work executes on the engine's shared worker pool.
type Stream struct {
	eng  *Engine
	sys  *System
	name string

	mu     sync.Mutex
	closed bool
}

// Name returns the stream's fleet label.
func (s *Stream) Name() string { return s.name }

// System exposes the stream's underlying adaptive System for advanced
// inspection (trace, platform, monitor). Do not call its Process
// methods directly while also using Stream.Process: the stream
// serializes frames and routes them through the engine's worker pool;
// bypassing it races.
func (s *Stream) System() *System { return s.sys }

// Stats returns the stream's accumulated counters.
func (s *Stream) Stats() Stats { return s.sys.Stats() }

// Loaded returns the configuration currently resident on this stream's
// reconfigurable partition.
func (s *Stream) Loaded() ConfigID { return s.sys.Loaded() }

// Mode returns the stream's resilience mode (nominal or degraded).
func (s *Stream) Mode() Mode { return s.sys.Mode() }

// Snapshot exports the stream's telemetry registry (zero-valued with
// Enabled=false unless WithMetrics was given).
func (s *Stream) Snapshot() MetricsSnapshot { return s.sys.Snapshot() }

// Process runs one frame through the engine: the frame is admitted to
// the engine's bounded queue (failing fast with ErrOverloaded beyond
// capacity) and executed on one of the engine's executors with the
// stream's own adaptive state. Frames on one stream are processed
// strictly in order; concurrent Process calls on different streams
// multiplex over the pool.
//
// The returned errors are errors.Is-matchable: ErrOverloaded (queue
// full), ErrStreamClosed (after Close), ErrEngineClosed (engine shut
// down), or the context error if ctx is cancelled while the frame
// waits in queue or mid-scan.
func (s *Stream) Process(ctx context.Context, sc *Scene) (FrameResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return FrameResult{}, fmt.Errorf("advdet: stream %s: %w", s.name, ErrStreamClosed)
	}
	var res FrameResult
	var ferr error
	tm, err := s.eng.disp.Submit(ctx, func(ctx context.Context) {
		res, ferr = s.sys.ProcessFrameCtx(ctx, sc)
	})
	if err != nil {
		return FrameResult{}, fmt.Errorf("advdet: stream %s: %w", s.name, err)
	}
	// Attribute the dispatcher trip (admission queue wait)
	// to the stream's telemetry; nil-safe when metrics are off.
	s.sys.Metrics().StageObserve(metrics.StageFleetDispatch, 0, uint64(tm.QueueWait()))
	return res, ferr
}

// RunScenario drives a whole synthetic drive through the stream frame
// by frame. On error the frames completed so far are returned
// alongside it.
func (s *Stream) RunScenario(ctx context.Context, sc *Scenario) ([]FrameResult, error) {
	n := sc.TotalFrames()
	out := make([]FrameResult, 0, n)
	for i := 0; i < n; i++ {
		res, err := s.Process(ctx, sc.FrameAt(i))
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// Close detaches the stream from the engine's capacity rollup and
// fails all further Process calls with ErrStreamClosed. It does not
// stop the engine; other streams are unaffected.
func (s *Stream) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.eng.rollup.Detach(s.name)
}
