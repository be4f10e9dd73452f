package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"advdet/internal/synth"
)

// Frame geometry of every workload.
const (
	frameW = 640
	frameH = 360
)

// Scenario lengths: TunnelTransit and NightHighway take a camera rate
// that sets their segment lengths. Both give 216 frames a pass, enough
// for a p95 with ten samples beyond it in every pass.
const (
	driveScenarioFPS = 12 // 18 s of drive: 216 frames
	nightScenarioFPS = 36 // 6 s of highway: 216 frames
)

// Fleet settings: four fixed cameras, each driven in a closed loop. A
// pass sends each camera fleetFrames frames, enough for a p95 with ten
// samples beyond it in every pass.
//
// A traced run also plays an open-loop schedule of fleetProbeFrames
// frames per stream at fleetRate frames per second (10 s, 200 frames
// in all). Its latencies are reported with the per-layer metrics, not
// as end-to-end metrics: on a host whose idle vCPUs take about a
// millisecond to wake, open-loop latency below saturation moves by a
// third from one minute to the next.
const (
	fleetCameras     = 4
	fleetFrames      = 64
	fleetVehicles    = 3
	fleetRate        = 5.0 // frames per second per stream
	fleetProbeFrames = 50
)

// camera is one stream's input: its frames, rendered before timing,
// the lighting it boots in and, for the open-loop probe, when each of
// its first frames is due relative to the start of the schedule.
type camera struct {
	name    string
	initial synth.Condition
	frames  []*synth.Scene
	due     []time.Duration
}

// workload is the generated input of one run.
type workload struct {
	name    string
	seed    uint64
	cameras []camera
	// rate is the offered frames per second of each stream in the
	// open-loop probe; 0 when the workload has none.
	rate float64
}

// makeWorkload renders every frame of the named workload from seed.
func makeWorkload(name string, seed uint64) (*workload, error) {
	w := &workload{name: name, seed: seed}
	switch name {
	case "drive":
		sc := synth.TunnelTransit(seed, frameW, frameH, driveScenarioFPS)
		w.cameras = []camera{{name: "drive", initial: synth.Day, frames: render(sc.TotalFrames(), sc.FrameAt)}}
	case "night":
		sc := synth.NightHighway(seed, frameW, frameH, nightScenarioFPS)
		w.cameras = []camera{{name: "night", initial: synth.Dark, frames: render(sc.TotalFrames(), sc.FrameAt)}}
	case "fleet-static":
		w.rate = fleetRate
		rng := synth.NewRNG(seed)
		for c := 0; c < fleetCameras; c++ {
			cond := synth.Day
			if c%2 == 1 {
				cond = synth.Dusk
			}
			sh := synth.NewStaticHighway(rng.Uint64(), frameW, frameH, cond, fleetVehicles)
			cam := camera{name: fmt.Sprintf("cam-%d-%s", c, cond), initial: cond, frames: render(fleetFrames, sh.Frame)}
			cam.due = schedule(fleetProbeFrames, w.rate, rng)
			w.cameras = append(w.cameras, cam)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want drive, night or fleet-static)", name)
	}
	return w, nil
}

// schedule returns the due times of n frames at rate per second: frame
// i is due at a point drawn uniformly from its own period, so frames
// stay in order while the overlap between streams changes from frame
// to frame instead of being fixed by one phase for the whole run. The
// schedule depends only on the rate and the seed, never on how fast
// frames complete.
func schedule(n int, rate float64, rng *synth.RNG) []time.Duration {
	period := float64(time.Second) / rate
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration((float64(i) + rng.Float64()) * period)
	}
	return due
}

// render produces frames 0..n-1 of a deterministic sequence across
// GOMAXPROCS goroutines. frameAt must be safe for concurrent calls;
// every synth sequence derives frame i from its seed and i alone.
func render(n int, frameAt func(int) *synth.Scene) []*synth.Scene {
	out := make([]*synth.Scene, n)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += workers {
				out[i] = frameAt(i)
			}
		}(g)
	}
	wg.Wait()
	return out
}
