package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"advdet/internal/adaptive"
	"advdet/internal/fleet"
	"advdet/internal/hog"
	"advdet/internal/metrics"
	"advdet/internal/par"
	"advdet/internal/pipeline"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

// StreamPerf is one stream's row in the fleet capacity experiment.
type StreamPerf struct {
	Stream  string  `json:"stream"`
	Frames  int     `json:"frames"`
	WallFPS float64 `json:"wall_fps"`
}

// FleetPerf is the fleet capacity experiment: N concurrent streams
// multiplexed over one shared engine (models + scan-lane pool +
// bounded dispatcher) against a single standalone stream. Additive in
// advdet-bench/v1.
type FleetPerf struct {
	Streams         int `json:"streams"`
	FramesPerStream int `json:"frames_per_stream"`
	// Workers is the dispatcher executor count and scan-lane budget
	// used by the fleet run (GOMAXPROCS by default).
	Workers int `json:"workers"`
	NumCPU  int `json:"num_cpu"`
	FrameW  int `json:"frame_w"`
	FrameH  int `json:"frame_h"`

	// SingleStreamFPS is the wall-clock rate of one standalone
	// one-lane stream; AggregateFPS is the whole fleet's wall-clock
	// rate (total frames / wall time); SpeedupX is their ratio. Wall
	// speedup is bounded by the host's core count.
	SingleStreamFPS float64 `json:"single_stream_fps"`
	AggregateFPS    float64 `json:"aggregate_fps"`
	SpeedupX        float64 `json:"speedup_x"`

	// CapacityStreamsFPS is the simulated-time capacity rollup:
	// every stream's configured fps weighted by its slot-deadline hit
	// ratio, summed (metrics.FleetSnapshot). This is the streams×fps
	// number the real-time claim is made on: hardware-independent,
	// it says how many real-time camera slots the modeled platform
	// sustained.
	CapacityStreamsFPS float64 `json:"capacity_streams_fps"`
	DeadlineHits       uint64  `json:"deadline_hits"`
	DeadlineMisses     uint64  `json:"deadline_misses"`

	// Overloaded counts admissions shed with ErrOverloaded and then
	// retried by the harness.
	Overloaded uint64 `json:"overloaded"`

	PerStream []StreamPerf `json:"per_stream"`
}

// FleetOptions shapes FleetBench.
type FleetOptions struct {
	Streams         int
	FramesPerStream int
	W, H            int
	// Workers sets the dispatcher executor count and the engine's
	// scan-lane budget; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
}

// DefaultFleetOptions returns the CI-speed operating point: 8 streams
// of 30 frames at 240x135.
func DefaultFleetOptions() FleetOptions {
	return FleetOptions{Streams: 8, FramesPerStream: 30, W: 240, H: 135}
}

// fleetDetectors builds the shared zero-weight day detector set: the
// same arithmetic cost as a trained model without the training time.
func fleetDetectors() adaptive.Detectors {
	return adaptive.Detectors{
		Day: pipeline.NewDayDuskDetector(&svm.Model{
			W: make([]float64, hog.DefaultConfig().DescriptorLen(pipeline.VehicleWindow, pipeline.VehicleWindow)),
		}),
	}
}

// FleetBench measures fleet-scale capacity. The baseline is one
// standalone stream scanning on a single lane; the fleet run
// multiplexes opt.Streams concurrent streams — each likewise capped at
// one lane — over a shared engine with opt.Workers executors and scan
// lanes. Per-stream detection output is byte-identical between the
// two by the determinism contract (asserted in the test suite); this
// experiment measures rates only.
func FleetBench(opt FleetOptions) (FleetPerf, error) {
	if opt.Streams <= 0 || opt.FramesPerStream <= 0 {
		return FleetPerf{}, fmt.Errorf("experiments: fleet bench needs streams and frames, got %d/%d",
			opt.Streams, opt.FramesPerStream)
	}
	workers := par.Workers(opt.Workers)
	rep := FleetPerf{
		Streams:         opt.Streams,
		FramesPerStream: opt.FramesPerStream,
		Workers:         workers,
		NumCPU:          runtime.NumCPU(),
		FrameW:          opt.W,
		FrameH:          opt.H,
	}
	dets := fleetDetectors()
	sysOpt := adaptive.DefaultOptions()
	sysOpt.RunDetectors = true
	sysOpt.EnableMetrics = true
	sysOpt.Parallelism = 1 // one lane per stream; the fleet scales by adding streams

	// Day-condition scenes, rendered up front and shared read-only.
	scenes := make([]*synth.Scene, opt.FramesPerStream)
	for i := range scenes {
		sc := synth.RenderScene(synth.NewRNG(uint64(40+i)),
			synth.SceneConfig{W: opt.W, H: opt.H, Cond: synth.Day})
		sc.Lux = 10000
		scenes[i] = sc
	}

	ctx := context.Background() // lint:ctxroot benchmark harness owns the run

	// Warm-up: one frame grows the pooled scan scratch and the
	// histogram LUT so both timed runs start in steady state.
	solo := adaptive.NewEngine(dets, adaptive.EngineConfig{Parallelism: sysOpt.Parallelism})
	warm, err := solo.NewSystem(sysOpt)
	if err != nil {
		return rep, err
	}
	if _, err := warm.ProcessFrameCtx(ctx, scenes[0]); err != nil {
		return rep, err
	}

	// Baseline: one single-lane stream alone on its own engine.
	single, err := solo.NewSystem(sysOpt)
	if err != nil {
		return rep, err
	}
	start := time.Now()
	for _, sc := range scenes {
		if _, err := single.ProcessFrameCtx(ctx, sc); err != nil {
			return rep, err
		}
	}
	if wall := time.Since(start).Seconds(); wall > 0 {
		rep.SingleStreamFPS = float64(opt.FramesPerStream) / wall
	}

	// Fleet: opt.Streams concurrent streams over one shared engine.
	eng := adaptive.NewEngine(dets, adaptive.EngineConfig{Parallelism: workers})
	disp := fleet.NewDispatcher(fleet.Config{Workers: workers, QueueDepth: 2 * opt.Streams})
	defer disp.Close()
	rollup := metrics.NewFleet()
	type streamRun struct {
		name string
		sys  *adaptive.System
		wall time.Duration
	}
	runs := make([]*streamRun, opt.Streams)
	for i := range runs {
		sys, err := eng.NewSystem(sysOpt)
		if err != nil {
			return rep, err
		}
		runs[i] = &streamRun{name: fmt.Sprintf("cam-%d", i), sys: sys}
		rollup.Attach(runs[i].name, sysOpt.FPS, sys.Metrics())
	}
	var overloads atomic.Uint64
	var firstErr error
	var errMu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(len(runs))
	fleetStart := time.Now()
	for _, run := range runs {
		go func(run *streamRun) {
			defer wg.Done()
			streamStart := time.Now()
			for _, sc := range scenes {
				var ferr error
				for {
					_, err := disp.Submit(ctx, func(ctx context.Context) {
						_, ferr = run.sys.ProcessFrameCtx(ctx, sc)
					})
					if err == nil {
						break
					}
					if errors.Is(err, fleet.ErrOverloaded) {
						// Graceful shedding: the stream backs off one
						// queue-drain interval and re-offers the frame.
						overloads.Add(1)
						time.Sleep(200 * time.Microsecond)
						continue
					}
					ferr = err
					break
				}
				if ferr != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("experiments: fleet stream %s: %w", run.name, ferr)
					}
					errMu.Unlock()
					return
				}
			}
			run.wall = time.Since(streamStart)
		}(run)
	}
	wg.Wait()
	if firstErr != nil {
		return rep, firstErr
	}
	fleetWall := time.Since(fleetStart).Seconds()
	total := opt.Streams * opt.FramesPerStream
	if fleetWall > 0 {
		rep.AggregateFPS = float64(total) / fleetWall
	}
	if rep.SingleStreamFPS > 0 {
		rep.SpeedupX = rep.AggregateFPS / rep.SingleStreamFPS
	}
	rep.Overloaded = overloads.Load()
	snap := rollup.Snapshot()
	rep.CapacityStreamsFPS = snap.CapacityStreamsFPS
	rep.DeadlineHits = snap.DeadlineHits
	rep.DeadlineMisses = snap.DeadlineMisses
	rep.PerStream = make([]StreamPerf, 0, len(runs))
	for _, run := range runs {
		row := StreamPerf{Stream: run.name, Frames: opt.FramesPerStream}
		if s := run.wall.Seconds(); s > 0 {
			row.WallFPS = float64(opt.FramesPerStream) / s
		}
		rep.PerStream = append(rep.PerStream, row)
	}
	return rep, nil
}

// WriteFleet prints the fleet capacity rows for humans.
func WriteFleet(w io.Writer, p FleetPerf) {
	fmt.Fprintf(w, "fleet capacity (%d streams × %d frames at %dx%d, %d workers on %d CPU(s)):\n",
		p.Streams, p.FramesPerStream, p.FrameW, p.FrameH, p.Workers, p.NumCPU)
	fmt.Fprintf(w, "  single stream (1 lane): %.1f fps wall\n", p.SingleStreamFPS)
	fmt.Fprintf(w, "  fleet aggregate: %.1f fps wall (%.2fx single-stream)\n", p.AggregateFPS, p.SpeedupX)
	fmt.Fprintf(w, "  modeled capacity: %.0f streams×fps (deadline %d hit / %d missed)\n",
		p.CapacityStreamsFPS, p.DeadlineHits, p.DeadlineMisses)
	fmt.Fprintf(w, "  dispatcher: %d overload shed+retry\n", p.Overloaded)
}
