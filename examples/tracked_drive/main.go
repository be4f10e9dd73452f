// Tracked drive: the adaptive system with the Kalman/Hungarian
// tracking layer on a temporally coherent night drive. The key
// property on display: when the dusk->dark transition drops one
// vehicle-detection frame (partial reconfiguration), the confirmed
// tracks coast through the gap on their motion models, so downstream
// consumers (planning, warning) never see the object disappear.
package main

import (
	"context"
	"fmt"
	"log"

	"advdet"
)

func main() {
	log.SetFlags(0)

	fmt.Println("training detectors...")
	dets, err := advdet.TrainDetectors(21, advdet.Fast)
	if err != nil {
		log.Fatal(err)
	}

	eng := advdet.NewEngine(dets)
	defer eng.Close()
	sys, err := eng.NewStream(
		advdet.WithInitial(advdet.Dusk),
		advdet.WithTracking())
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// A coherent drive that goes dark mid-way: frames 0-19 dusk,
	// 20+ dark. Both halves share the same seed so actor trajectories
	// line up at the boundary.
	duskDrive := advdet.NewDrive(31, 640, 360, advdet.Dusk, 2, 0)
	darkDrive := advdet.NewDrive(31, 640, 360, advdet.Dark, 2, 0)

	const frames = 40
	ids := map[int]int{} // track ID -> frames observed
	for i := 0; i < frames; i++ {
		var sc *advdet.Scene
		if i < 20 {
			sc = duskDrive.Frame(i)
		} else {
			sc = darkDrive.Frame(i)
		}
		res, err := sys.Process(ctx, sc)
		if err != nil {
			log.Fatal(err)
		}
		for _, tr := range res.Tracks {
			ids[tr.ID]++
		}
		status := ""
		if res.ReconfigStarted {
			status = "  << reconfiguration starts"
		}
		if res.VehicleDropped {
			status += "  << vehicle frame dropped; tracks coast"
		}
		fmt.Printf("frame %2d (%4s): %d detection(s), %d confirmed track(s)%s\n",
			i, res.Cond, len(res.Vehicles), len(res.Tracks), status)
	}

	st := sys.Stats()
	fmt.Printf("\nreconfigurations: %d, vehicle frames dropped: %d\n",
		len(st.Reconfigs), st.VehicleDropped)
	long := 0
	for id, n := range ids {
		if n >= 10 {
			long++
			fmt.Printf("track %d persisted for %d frames\n", id, n)
		}
	}
	if long > 0 {
		fmt.Println("-> track identities survived the algorithm switch and the dropped frame.")
	}
}
