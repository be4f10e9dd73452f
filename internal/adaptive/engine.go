package adaptive

import "advdet/internal/par"

// Engine is the shared half of the adaptive stack: the immutable
// trained detector set plus the scan-lane pool every stream's
// detection work is scheduled onto. It is the software analogue of the
// paper's PL fabric — one set of synthesized detection hardware that
// many frame slots execute against — while System carries everything
// per-stream: monitor hysteresis, the reconfiguration state machine,
// slot-deadline accounting and metrics.
//
// An Engine is safe for concurrent use by any number of Systems: the
// detectors are read-only after training and the pool is a counting
// semaphore. Systems themselves remain single-goroutine objects.
type Engine struct {
	// Dets is the shared trained detector set. Treated as immutable;
	// mutating a model while streams are scanning is a data race.
	Dets Detectors

	pool *par.Pool
}

// EngineConfig configures the shared half.
type EngineConfig struct {
	// Parallelism is the total scan-lane budget shared by every stream
	// on the engine (the pool size). Values <= 0 select
	// runtime.GOMAXPROCS(0). Per-stream Options.Parallelism then caps how
	// many of the shared lanes one frame may borrow.
	Parallelism int
}

// NewEngine builds the shared engine over a trained detector set.
func NewEngine(dets Detectors, cfg EngineConfig) *Engine {
	return &Engine{Dets: dets, pool: par.NewPool(cfg.Parallelism)}
}

// Pool exposes the shared scan-lane pool (for telemetry; streams
// acquire through their per-frame grant, not directly).
func (e *Engine) Pool() *par.Pool { return e.pool }

// NewSystem boots a per-stream System bound to this engine: it shares
// the engine's detectors and borrows scan lanes from the engine pool
// for the duration of each frame's detection work.
func (e *Engine) NewSystem(opt Options) (*System, error) {
	return newSystem(e, e.Dets, opt)
}

// beginFrameLanes reserves this frame's scan lanes from the engine
// pool. Without an engine (the classic single-stream path) or in
// timing-only mode (no scans run) it is a no-op and the Parallelism
// knob is used directly.
func (s *System) beginFrameLanes() {
	if s.eng == nil || !s.Opt.RunDetectors {
		return
	}
	s.grant = s.eng.pool.Acquire(par.Workers(s.Opt.Parallelism))
}

// endFrameLanes returns the frame's lanes to the engine pool.
func (s *System) endFrameLanes() {
	if s.grant > 0 {
		s.eng.pool.Release(s.grant)
		s.grant = 0
	}
}
