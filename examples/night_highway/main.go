// Night highway: the dark pipeline on an iROADS-like all-dark drive.
// Writes Fig. 5-style qualitative results: PPM frames with detected
// vehicles (red), pedestrians (green) and ground truth (yellow), plus
// the intermediate binary taillight map (PGM) of the pipeline's
// preprocessing stages.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"advdet"
	"advdet/internal/img"
)

func main() {
	log.SetFlags(0)
	out := flag.String("out", "night_out", "output directory for PPM/PGM frames")
	frames := flag.Int("frames", 5, "number of frames to process")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	fmt.Println("training detectors...")
	dets, err := advdet.TrainDetectors(5, advdet.Fast)
	if err != nil {
		log.Fatal(err)
	}

	eng := advdet.NewEngine(dets)
	defer eng.Close()
	sys, err := eng.NewStream(advdet.WithInitial(advdet.Dark))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	scenario := advdet.NightHighway(9, 640, 360, 10)
	var matched, total int
	for i := 0; i < *frames; i++ {
		sc := scenario.FrameAt(i * 7) // spread across the drive
		res, err := sys.Process(ctx, sc)
		if err != nil {
			log.Fatal(err)
		}

		overlay := sc.Frame.Clone()
		for _, gt := range sc.Vehicles {
			img.DrawRect(overlay, gt, 255, 255, 0, 1)
		}
		for _, d := range res.Vehicles {
			img.DrawRect(overlay, d.Box, 255, 60, 60, 2)
		}
		for _, d := range res.Pedestrians {
			img.DrawRect(overlay, d.Box, 60, 255, 60, 2)
		}
		framePath := filepath.Join(*out, fmt.Sprintf("frame_%02d.ppm", i))
		if err := img.WritePPM(framePath, overlay); err != nil {
			log.Fatal(err)
		}

		// Also dump the thresholded taillight map the DBN scans.
		bin := dets.Dark.Preprocess(sc.Frame)
		vis := img.NewGray(bin.W, bin.H)
		for j, p := range bin.Pix {
			vis.Pix[j] = p * 255
		}
		mapPath := filepath.Join(*out, fmt.Sprintf("frame_%02d_taillights.pgm", i))
		if err := img.WritePGM(mapPath, vis); err != nil {
			log.Fatal(err)
		}

		m := advdet.MatchBoxes(sc.Vehicles, detBoxes(res.Vehicles), 0.2)
		matched += m.TP
		total += m.TP + m.FN
		fmt.Printf("frame %d: %d ground-truth vehicle(s), %d detected, match %s -> %s\n",
			i, len(sc.Vehicles), len(res.Vehicles), m, framePath)
	}
	if total > 0 {
		fmt.Printf("\nrecall over the sampled frames: %d/%d\n", matched, total)
	}
	fmt.Printf("wrote overlays and taillight maps to %s/\n", *out)
}

func detBoxes(dets []advdet.Detection) []advdet.Rect {
	out := make([]advdet.Rect, len(dets))
	for i, d := range dets {
		out[i] = d.Box
	}
	return out
}
