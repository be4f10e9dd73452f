// Quickstart: train the detectors once, boot a shared Engine over
// them, open one Stream per lighting condition and print what each
// found. The Engine owns everything shared (trained models, scan
// lanes, the frame dispatcher); each Stream owns its per-camera
// adaptive state, so the three conditions coexist on one engine.
package main

import (
	"context"
	"fmt"
	"log"

	"advdet"
)

func main() {
	log.SetFlags(0)

	fmt.Println("training detectors (Fast quality, fully synthetic data)...")
	dets, err := advdet.TrainDetectors(1, advdet.Fast)
	if err != nil {
		log.Fatal(err)
	}

	// One engine: the models are trained once and shared read-only by
	// every stream, like the paper's single PL fabric serving each
	// frame slot.
	eng := advdet.NewEngine(dets)
	defer eng.Close()
	ctx := context.Background()

	for _, cond := range []advdet.Condition{advdet.Day, advdet.Dusk, advdet.Dark} {
		// Each condition gets its own stream, booted into that
		// condition so no reconfiguration is pending when the frame
		// arrives.
		st, err := eng.NewStream(advdet.WithInitial(cond))
		if err != nil {
			log.Fatal(err)
		}

		scene := advdet.RenderScene(uint64(10+cond), 640, 360, cond)
		res, err := st.Process(ctx, scene)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("\n%s frame (sensor %.0f lux, config %s):\n", cond, scene.Lux, st.Loaded())
		fmt.Printf("  ground truth: %d vehicle(s), %d pedestrian(s)\n",
			len(scene.Vehicles), len(scene.Pedestrians))
		fmt.Printf("  detected:     %d vehicle(s), %d pedestrian(s)\n",
			len(res.Vehicles), len(res.Pedestrians))
		for _, d := range res.Vehicles {
			fmt.Printf("    vehicle at %v (score %.2f)\n", d.Box, d.Score)
		}
		m := advdet.MatchBoxes(scene.Vehicles, boxes(res.Vehicles), 0.2)
		fmt.Printf("  vehicle match vs ground truth: %s\n", m)
	}
}

func boxes(dets []advdet.Detection) []advdet.Rect {
	out := make([]advdet.Rect, len(dets))
	for i, d := range dets {
		out[i] = d.Box
	}
	return out
}
