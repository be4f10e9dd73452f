package advdet

import (
	"errors"
	"fmt"
	"slices"

	"advdet/internal/fleet"
)

// Option configures NewSystem, NewEngine or Engine.NewStream. Every
// setting has one name, valid at all three constructors unless its doc
// says otherwise. Options given to NewEngine are the defaults for every
// stream it opens; options given to NewStream are applied after them,
// so they override. Within one call, later options win.
type Option func(*config)

// ErrMisplacedOption: an option was given to a constructor it does not
// apply at — a fleet setting on NewSystem or NewStream, a stream name on
// NewSystem or NewEngine, or a caller-owned ledger on an engine or
// stream. The constructor fails rather than ignore it.
var ErrMisplacedOption = errors.New("option not valid at this constructor")

// scope is the constructor an Option is being applied at.
type scope uint8

const (
	scopeSystem scope = iota
	scopeEngine
	scopeStream
)

func (s scope) String() string {
	return [...]string{"NewSystem", "NewEngine", "NewStream"}[s]
}

// config is what the options resolve to at one constructor.
type config struct {
	at     scope
	opt    SystemOptions
	name   string       // stream label (NewStream only)
	shared bool         // enroll in the engine's shared ledger
	fleet  fleet.Config // dispatcher shape (NewEngine only)
	err    error        // first misplaced option
}

// resolve applies opts at scope at on top of base: the one path from
// options to the adaptive.Options of a System or Stream. base is the
// paper's operating point for NewSystem and NewEngine, and the engine's
// resolved defaults (misplaced-option error included) for NewStream.
func resolve(at scope, base config, opts []Option) config {
	c := base
	c.at = at
	// Clip so a stream appending its own sinks never writes into the
	// engine defaults' backing array.
	c.opt.EventSinks = slices.Clip(c.opt.EventSinks)
	for _, o := range opts {
		o(&c)
	}
	return c
}

// defaultConfig is the paper's operating point (DefaultSystemOptions).
func defaultConfig() config { return config{opt: DefaultSystemOptions()} }

// only reports whether the option named name is being applied at want,
// recording ErrMisplacedOption if not.
func (c *config) only(name string, want scope) bool {
	if c.at == want {
		return true
	}
	if c.err == nil {
		c.err = fmt.Errorf("%s given to %s: %w", name, c.at, ErrMisplacedOption)
	}
	return false
}

// WithFPS sets the camera frame rate (the paper runs at 50).
func WithFPS(fps int) Option {
	return func(c *config) { c.opt.FPS = fps }
}

// WithBitstreamBytes sets the partial bitstream size used by the
// reconfiguration model.
func WithBitstreamBytes(n int) Option {
	return func(c *config) { c.opt.BitstreamBytes = n }
}

// WithInitial sets the boot lighting condition.
func WithInitial(cond Condition) Option {
	return func(c *config) { c.opt.Initial = cond }
}

// WithParallelism bounds the detection lanes — the software model of
// the PL's replicated window-evaluation lanes. On NewStream, n caps how
// many of the engine's shared lanes one frame may borrow. On NewEngine,
// n also sizes that shared pool, and is every stream's default cap. On
// NewSystem it does both for the system's private pool. n <= 0 means
// runtime.GOMAXPROCS(0); 1 runs every scan on the calling goroutine.
// Detection output is identical for every setting.
func WithParallelism(n int) Option {
	return func(c *config) { c.opt.Parallelism = n }
}

// WithTimingOnly disables software detection: the system models frame
// timing and reconfiguration only, for long timing-focused scenarios.
func WithTimingOnly() Option {
	return func(c *config) { c.opt.RunDetectors = false }
}

// WithSenseFromImage estimates ambient light from frame pixels
// instead of the scene's sensor value — the fallback for platforms
// without the paper's external light sensor.
func WithSenseFromImage() Option {
	return func(c *config) { c.opt.SenseFromImage = true }
}

// WithTracking runs the Kalman/Hungarian tracker over detections;
// confirmed tracks appear in FrameResult.Tracks and coast through the
// one-frame reconfiguration dropout.
func WithTracking() Option {
	return func(c *config) { c.opt.EnableTracking = true }
}

// WithMetrics attaches the frame-budget telemetry registry: per-stage
// counters and histograms in simulated and wall time plus
// slot-deadline accounting, read back through System.Snapshot or
// Stream.Snapshot. Each stream gets its own registry and contributes
// its slot-deadline record to the engine's FleetSnapshot. Disabled (the
// default), the per-frame path performs no metrics work at all.
func WithMetrics() Option {
	return func(c *config) { c.opt.EnableMetrics = true }
}

// WithFaultPlan installs a fault injector on the reconfiguration
// datapath: staging CRC corruption, PR DMA stalls and aborts, dropped
// PR-done interrupts and failed model-bank selects (see NewFaultPlan).
// On NewEngine every stream draws from the one plan. A nil plan — the
// default — injects nothing at zero cost.
func WithFaultPlan(p *FaultPlan) Option {
	return func(c *config) { c.opt.FaultPlan = p }
}

// WithRetryPolicy bounds the reconfiguration watchdog and
// retry/backoff loop. Zero fields are filled from
// DefaultRetryPolicy, so partial policies tweak one knob at a time.
func WithRetryPolicy(rp RetryPolicy) Option {
	return func(c *config) { c.opt.Retry = rp }
}

// WithTemporalCache reuses each HOG detector's feature and block
// buffers across consecutive frames, fingerprinting the frame
// in 64x64 tiles and recomputing only what each frame's changed tiles
// invalidate — the software rendition of persistent BRAM line buffers
// surviving between frames in the PL. Detection output is
// byte-identical to a cold scan of every frame; on static-camera
// footage the warm-frame scan cost drops by the fraction of tiles
// unchanged. Caches are per-stream, even when NewEngine makes the
// cache every stream's default, so streams never alias each other's
// frame history; they are invalidated automatically whenever a
// partial reconfiguration is requested.
func WithTemporalCache() Option {
	return func(c *config) { c.opt.ScanTemporalCache = true }
}

// WithEventSink subscribes a consumer to the unified typed event
// stream: every frame verdict, model select, reconfiguration outcome,
// fault and mode transition, as Event values with stream id, frame
// index and simulated-ps timestamp. Sinks are invoked synchronously on
// the frame-processing goroutine in deterministic per-stream order;
// delivery allocates nothing. May be given multiple times. On
// NewEngine the sink subscribes to every stream, so it must be safe
// for concurrent use (EventLog is).
func WithEventSink(sink EventSink) Option {
	return func(c *config) { c.opt.EventSinks = append(c.opt.EventSinks, sink) }
}

// WithLedger attaches a tamper-evident ledger: every event's canonical
// encoding is appended to a hash chain and Merkle-batched
// (size-or-simulated-deadline sealing). Detection output is
// byte-identical with the ledger on, and the scan hot path stays
// within its allocation budget.
//
// On NewSystem, led becomes the system's private ledger (nil installs
// a default-configured one), read back with System.Ledger. NewSystem
// spawns no goroutines, so there is no wall-clock sealer: call
// Ledger.SealOpen to flush the tail before serializing.
//
// On NewStream (or NewEngine, for every stream) led must be nil: the
// stream enrolls in the engine's shared ledger, with its own hash
// chain keyed by its engine-assigned id, under one Merkle sealer and
// one anchor chain. Batches seal by size, simulated-time span, or the
// engine's wall-clock sealer, which Engine.Close joins and flushes.
// Read it with Engine.Ledger. A non-nil ledger there fails with
// ErrMisplacedOption.
func WithLedger(led *Ledger) Option {
	return func(c *config) {
		switch {
		case led == nil && c.at != scopeSystem:
			c.shared = true
		case led == nil:
			c.opt.Ledger = NewLedger(LedgerConfig{})
		case c.only("WithLedger(non-nil)", scopeSystem):
			c.opt.Ledger = led
		}
	}
}

// WithName labels a stream in the fleet metrics rollup and in error
// messages. Defaults to "stream-<n>" in creation order. NewStream
// only.
func WithName(name string) Option {
	return func(c *config) {
		if c.only("WithName", scopeStream) {
			c.name = name
		}
	}
}

// WithFleetWorkers sets the engine dispatcher's executor pool size: how
// many frames (across all streams) execute concurrently. n <= 0
// selects runtime.GOMAXPROCS(0). NewEngine only.
func WithFleetWorkers(n int) Option {
	return func(c *config) {
		if c.only("WithFleetWorkers", scopeEngine) {
			c.fleet.Workers = n
		}
	}
}

// WithQueueDepth bounds the engine's admission queue; a full queue
// makes Stream.Process fail fast with ErrOverloaded instead of
// queueing unboundedly. At most n + the worker count frames are
// admitted and unfinished at once. n <= 0 selects twice the worker
// count. NewEngine only.
func WithQueueDepth(n int) Option {
	return func(c *config) {
		if c.only("WithQueueDepth", scopeEngine) {
			c.fleet.QueueDepth = n
		}
	}
}

// Former names, kept only because the perfbench module calls them;
// new code uses the single names above.

// StreamOption is the former name of Option.
type StreamOption = Option

// WithStreamLedger is WithLedger(nil).
func WithStreamLedger() Option { return WithLedger(nil) }

// WithStreamInitial is WithInitial.
func WithStreamInitial(cond Condition) Option { return WithInitial(cond) }

// WithStreamEventSink is WithEventSink.
func WithStreamEventSink(sink EventSink) Option { return WithEventSink(sink) }

// WithEngineTemporalCache is WithTemporalCache.
func WithEngineTemporalCache() Option { return WithTemporalCache() }
