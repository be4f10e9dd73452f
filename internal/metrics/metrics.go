// Package metrics is the frame-budget telemetry layer over the
// simulation tracer: the software stand-in for the ARM performance
// event counters the paper programs and the Vivado ILA captures it
// triggers (§IV). Where internal/trace records *what happened* as raw
// timestamped events, this package aggregates *how the budget was
// spent*: monotonic counters, gauges and fixed-bucket histograms keyed
// by pipeline stage, in both simulated picoseconds and wall-clock
// nanoseconds, plus per-frame slot-deadline accounting (hit/miss and
// headroom distribution).
//
// The hot path is allocation-free: every series is a fixed-size atomic
// cell sized at construction, so a Registry can sit inside the
// per-frame loop of the adaptive system without perturbing the numbers
// it measures. All methods are safe on a nil *Registry (they become
// no-ops), which is how the disabled configuration costs nothing.
//
// lint:detpath
package metrics

import (
	"sync/atomic"
)

// Stage identifies one instrumented stage of the per-frame datapath,
// mirroring the blocks of the paper's Fig. 6 platform.
type Stage int

const (
	// StageSense is the light-sensor read + condition classification.
	StageSense Stage = iota
	// StageModelSelect is a day<->dusk BRAM model select (AXI-Lite).
	StageModelSelect
	// StageVehicleScan is the software vehicle-detection scan.
	StageVehicleScan
	// StagePedestrianScan is the software pedestrian-detection scan.
	StagePedestrianScan
	// StageDMAStream is one frame DMA + PL pipeline traversal.
	StageDMAStream
	// StageReconfig is one partial reconfiguration of the vehicle block.
	StageReconfig
	// StageReconfigFault is one retry cycle of a failing
	// reconfiguration: the count is the retries scheduled and the
	// simulated total is the backoff time spent waiting to re-arm.
	StageReconfigFault
	// StageScanResize through StageScanWindows attribute one vehicle
	// scan's wall time to the block-response engine's sub-stages
	// (pyramid resize, feature maps, block normalization, anchor
	// lattice setup, window scoring) — the software mirror of the
	// Fig. 2 datapath stages.
	StageScanResize
	StageScanFeature
	StageScanBlocks
	StageScanResponse
	StageScanWindows
	// StageScanTemporal is the temporal scan cache's per-frame overhead:
	// tile fingerprinting plus dirty-mask propagation (wall time only;
	// zero when no cache is attached).
	StageScanTemporal
	// StageFleetDispatch is one frame's trip through the fleet
	// dispatcher's admission queue before an executor picked it up
	// (wall time only; the dispatcher is host-side software with no
	// simulated-hardware counterpart).
	StageFleetDispatch
	// NumStages bounds the stage space.
	NumStages
)

var stageNames = [NumStages]string{
	"sense", "model-select", "vehicle-scan", "pedestrian-scan",
	"dma-stream", "reconfig", "reconfig-fault",
	"scan-resize", "scan-feature", "scan-blocks", "scan-response", "scan-windows",
	"scan-temporal",
	"fleet-dispatch",
}

func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// Gauge identifies one instantaneous value the system publishes.
type Gauge int

const (
	// GaugeLoadedConfig is the loaded partial configuration
	// (0 day-dusk, 1 dark).
	GaugeLoadedConfig Gauge = iota
	// GaugeReconfigInFlight is 1 while a reconfiguration is running.
	GaugeReconfigInFlight
	// GaugeFrameIndex is the index of the last completed frame.
	GaugeFrameIndex
	// GaugeMode is the resilience mode of the adaptive system
	// (0 nominal, 1 recovering, 2 degraded).
	GaugeMode
	// GaugeLedgerEvents is the total events appended to the attached
	// tamper-evident ledger (0 when no ledger is attached).
	GaugeLedgerEvents
	// GaugeLedgerBatches is the number of Merkle batches the attached
	// ledger has sealed.
	GaugeLedgerBatches
	// GaugeTileHitRate is the temporal scan cache's hit rate over the
	// last vehicle scan, in basis points (0-10000; 0 when no cache ran).
	GaugeTileHitRate
	// NumGauges bounds the gauge space.
	NumGauges
)

var gaugeNames = [NumGauges]string{
	"loaded_config", "reconfig_in_flight", "frame_index", "mode",
	"ledger_events", "ledger_batches", "tile_hit_rate_bp",
}

func (g Gauge) String() string {
	if g < 0 || g >= NumGauges {
		return "unknown"
	}
	return gaugeNames[g]
}

// FaultKind identifies one class of reconfiguration-fault event the
// resilience layer counts.
type FaultKind int

const (
	// FaultVerify: a staged bitstream failed its CRC verify pass.
	FaultVerify FaultKind = iota
	// FaultWatchdog: the PR-done interrupt missed its deadline and the
	// in-flight reconfiguration was abandoned.
	FaultWatchdog
	// FaultRetry: a reconfiguration retry was scheduled.
	FaultRetry
	// FaultIRQDrop: a PL-to-PS interrupt assertion was lost.
	FaultIRQDrop
	// FaultBankSelect: a BRAM model-bank select write failed.
	FaultBankSelect
	// FaultStaleVehicleFrame: a frame served vehicle detections from
	// the last-good resident model while the wanted switch was failing.
	FaultStaleVehicleFrame
	// FaultDegradedFrame: a frame completed while the system was in
	// degraded mode (retry budget exhausted).
	FaultDegradedFrame
	// NumFaultKinds bounds the fault-kind space.
	NumFaultKinds
)

var faultNames = [NumFaultKinds]string{
	"verify", "watchdog", "retry", "irq-dropped", "bank-select",
	"stale-vehicle-frame", "degraded-frame",
}

func (k FaultKind) String() string {
	if k < 0 || k >= NumFaultKinds {
		return "unknown"
	}
	return faultNames[k]
}

// TileKind identifies one class of temporal-scan-cache tile event: a
// fingerprint match that reused cached work, a mismatch that forced a
// refresh, or a tile hashed with nothing to compare against (first
// frame, explicit invalidation, geometry change).
type TileKind int

const (
	// TileHits: tiles whose fingerprint matched and whose cached
	// feature and block rows were reused as-is.
	TileHits TileKind = iota
	// TileMisses: tiles whose fingerprint differed from the cached one
	// (frame content changed there).
	TileMisses
	// TileRefresh: tiles fingerprinted with no comparable cached hash.
	TileRefresh
	// NumTileKinds bounds the tile-kind space.
	NumTileKinds
)

var tileNames = [NumTileKinds]string{"tile_hits", "tile_misses", "tile_refresh"}

func (k TileKind) String() string {
	if k < 0 || k >= NumTileKinds {
		return "unknown"
	}
	return tileNames[k]
}

// stageSeries aggregates one stage: an invocation counter, running
// totals in both clocks, and a fixed-bucket histogram over the
// per-invocation simulated duration.
type stageSeries struct {
	count  atomic.Uint64
	simPS  atomic.Uint64
	wallNS atomic.Uint64
	sim    Histogram
}

// frameSeries is the per-frame budget accounting: every frame either
// hits its slot deadline or misses it, and the headroom/overrun
// distributions say by how much.
type frameSeries struct {
	frames  atomic.Uint64
	hits    atomic.Uint64
	misses  atomic.Uint64
	latency Histogram // hardware finish - slot start, ps
	headrm  Histogram // deadline - finish, ps (deadline hits only)
	overrun Histogram // finish - deadline, ps (misses only)
	wall    Histogram // wall-clock frame cost, ns
}

// Registry is the telemetry root: one fixed arena of atomic series,
// ready for concurrent writers. The zero value is NOT ready — use
// NewRegistry, which sizes the histogram buckets.
type Registry struct {
	stages [NumStages]stageSeries
	frame  frameSeries
	gauges [NumGauges]atomic.Uint64
	faults [NumFaultKinds]atomic.Uint64
	tiles  [NumTileKinds]atomic.Uint64
}

// NewRegistry returns a registry with the default exponential buckets:
// 1 µs to ~17 s in doubling steps, covering everything from one
// AXI-Lite write to a multi-second scenario in simulated time, and the
// same span in wall time.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.stages {
		r.stages[i].sim.init(DefaultBucketsPS())
	}
	r.frame.latency.init(DefaultBucketsPS())
	r.frame.headrm.init(DefaultBucketsPS())
	r.frame.overrun.init(DefaultBucketsPS())
	r.frame.wall.init(DefaultBucketsNS())
	return r
}

// DefaultBucketsPS returns the default histogram bounds for simulated
// durations: 1 µs (1e6 ps) doubling through ~17 s.
func DefaultBucketsPS() []uint64 { return expBuckets(1_000_000, 25) }

// DefaultBucketsNS returns the default histogram bounds for wall-clock
// durations: 1 µs (1e3 ns) doubling through ~17 s.
func DefaultBucketsNS() []uint64 { return expBuckets(1_000, 25) }

func expBuckets(lo uint64, n int) []uint64 {
	out := make([]uint64, n)
	v := lo
	for i := range out {
		out[i] = v
		v *= 2
	}
	return out
}

// StageObserve records one invocation of a stage with its simulated
// and wall-clock costs (either may be zero when the stage has no cost
// in that clock). No-op on a nil registry.
//
// lint:hotpath
func (r *Registry) StageObserve(s Stage, simPS, wallNS uint64) {
	if r == nil || s < 0 || s >= NumStages {
		return
	}
	st := &r.stages[s]
	st.count.Add(1)
	st.simPS.Add(simPS)
	st.wallNS.Add(wallNS)
	st.sim.Observe(simPS)
}

// FrameObserve records one completed frame: its hardware latency from
// slot start, its headroom against the slot deadline (negative means
// the deadline was missed) and its wall-clock cost. No-op on a nil
// registry.
//
// lint:hotpath
func (r *Registry) FrameObserve(latencyPS uint64, headroomPS int64, wallNS uint64) {
	if r == nil {
		return
	}
	f := &r.frame
	f.frames.Add(1)
	f.latency.Observe(latencyPS)
	f.wall.Observe(wallNS)
	if headroomPS >= 0 {
		f.hits.Add(1)
		f.headrm.Observe(uint64(headroomPS))
	} else {
		f.misses.Add(1)
		f.overrun.Observe(uint64(-headroomPS))
	}
}

// SetGauge publishes an instantaneous value. No-op on a nil registry.
//
// lint:hotpath
func (r *Registry) SetGauge(g Gauge, v uint64) {
	if r == nil || g < 0 || g >= NumGauges {
		return
	}
	r.gauges[g].Store(v)
}

// GaugeValue reads a gauge (zero on a nil registry).
func (r *Registry) GaugeValue(g Gauge) uint64 {
	if r == nil || g < 0 || g >= NumGauges {
		return 0
	}
	return r.gauges[g].Load()
}

// StageCount reads a stage's invocation counter (zero on nil).
func (r *Registry) StageCount(s Stage) uint64 {
	if r == nil || s < 0 || s >= NumStages {
		return 0
	}
	return r.stages[s].count.Load()
}

// FaultAdd counts one reconfiguration-fault event. No-op on a nil
// registry.
//
// lint:hotpath
func (r *Registry) FaultAdd(k FaultKind) {
	if r == nil || k < 0 || k >= NumFaultKinds {
		return
	}
	r.faults[k].Add(1)
}

// FaultCount reads a fault counter (zero on nil).
func (r *Registry) FaultCount(k FaultKind) uint64 {
	if r == nil || k < 0 || k >= NumFaultKinds {
		return 0
	}
	return r.faults[k].Load()
}

// TileAdd counts n temporal-scan-cache tile events of one kind. No-op
// on a nil registry.
//
// lint:hotpath
func (r *Registry) TileAdd(k TileKind, n uint64) {
	if r == nil || k < 0 || k >= NumTileKinds {
		return
	}
	r.tiles[k].Add(n)
}

// TileCount reads a tile counter (zero on nil).
func (r *Registry) TileCount(k TileKind) uint64 {
	if r == nil || k < 0 || k >= NumTileKinds {
		return 0
	}
	return r.tiles[k].Load()
}
