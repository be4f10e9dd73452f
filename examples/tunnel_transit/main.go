// Tunnel transit: the paper's motivating drive. The car drives
// through urban daylight, enters a well-lit tunnel (classified dusk —
// a pure model switch, no reconfiguration), re-emerges, passes
// through sunset and ends on an open night road (dark — one partial
// reconfiguration).
//
// The example shows:
//   - the condition monitor tracking the light sensor with hysteresis,
//   - exactly one reconfiguration for the whole drive,
//   - exactly one vehicle frame lost, while the pedestrian pipeline
//     processes every frame of the drive (the static partition is
//     never interrupted).
package main

import (
	"context"
	"fmt"
	"log"

	"advdet"
	"advdet/internal/soc"
	"advdet/internal/synth"
)

func main() {
	log.SetFlags(0)

	const fps = 25 // reduced from 50 to halve render cost; timing scales
	scenario := advdet.TunnelTransit(3, 320, 180, fps)

	fmt.Println("training detectors...")
	dets, err := advdet.TrainDetectors(7, advdet.Fast)
	if err != nil {
		log.Fatal(err)
	}

	eng := advdet.NewEngine(dets)
	defer eng.Close()
	sys, err := eng.NewStream(advdet.WithFPS(fps), advdet.WithMetrics())
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	fmt.Printf("drive: %d frames at %d fps (%.0f s of driving)\n\n",
		scenario.TotalFrames(), fps, float64(scenario.TotalFrames())/float64(fps))

	lastLabel := ""
	var vehDet, pedDet int
	for i := 0; i < scenario.TotalFrames(); i++ {
		sc := scenario.FrameAt(i)
		res, err := sys.Process(ctx, sc)
		if err != nil {
			log.Fatal(err)
		}
		if _, label := scenario.CondAt(i); label != lastLabel {
			fmt.Printf("t=%5.1fs  segment %q (sensor ~%.0f lux, condition %s, config %s)\n",
				float64(i)/fps, label, sc.Lux, res.Cond, sys.Loaded())
			lastLabel = label
		}
		if res.ReconfigStarted {
			fmt.Printf("t=%5.1fs  >>> partial reconfiguration started\n", float64(i)/fps)
		}
		if res.VehicleDropped {
			fmt.Printf("t=%5.1fs  >>> vehicle frame dropped (pedestrian path unaffected)\n", float64(i)/fps)
		}
		vehDet += len(res.Vehicles)
		pedDet += len(res.Pedestrians)
	}

	st := sys.Stats()
	fmt.Printf("\nsummary over %d frames:\n", st.Frames)
	fmt.Printf("  vehicle detections:      %d\n", vehDet)
	fmt.Printf("  pedestrian detections:   %d\n", pedDet)
	fmt.Printf("  pedestrian frames run:   %d (100%% — static partition)\n", st.PedestrianFrames)
	fmt.Printf("  vehicle frames dropped:  %d\n", st.VehicleDropped)
	fmt.Printf("  reconfigurations:        %d\n", len(st.Reconfigs))
	for _, r := range st.Reconfigs {
		fmt.Printf("    frame %d: %s -> %s in %.2f ms\n",
			r.Frame, r.From, r.To, soc.Seconds(r.DonePS-r.StartPS)*1e3)
	}
	if n := len(st.Reconfigs); n == 1 && st.Reconfigs[0].To.String() == "dark" {
		fmt.Println("  -> as in the paper: the lit tunnel is handled as dusk with no")
		fmt.Println("     reconfiguration; only true darkness swaps the bitstream.")
	}

	// The telemetry layer (WithMetrics) accounts every frame against
	// its slot deadline — the software analogue of watching the ARM
	// event counters during a drive.
	snap := sys.Snapshot()
	fmt.Printf("\nframe budget (telemetry snapshot):\n")
	fmt.Printf("  deadline hits/misses:    %d / %d\n",
		snap.Frames.DeadlineHits, snap.Frames.DeadlineMisses)
	fmt.Printf("  hw latency p50/p99:      %.3f / %.3f ms of the %.0f ms slot\n",
		float64(snap.Frames.LatencyP50PS)/1e9, float64(snap.Frames.LatencyP99PS)/1e9, 1000/float64(fps))
	if rc, ok := snap.StageByName("reconfig"); ok && rc.Count > 0 {
		fmt.Printf("  reconfig stage:          %d run(s), %.2f ms total\n",
			rc.Count, float64(rc.SimPSTotal)/1e9)
	}
	_ = synth.Dark
}
