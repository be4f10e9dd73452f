// Animal option: the introduction's motivating example made concrete.
// Animal detection "could be a useful feature for ADS since, in some
// countryside roads, animals might appear and cross the road.
// However, this feature might not be used in most of the times when
// the driving area is limited to urban roads."
//
// This example stages a third partial configuration (animal
// detection) in PL DDR next to the vehicle configurations, verifies it
// fits the floorplanned partition, and swaps it in when the drive
// leaves the urban area — all with the same DMA-ICAP controller and
// the same ~20 ms cost, while pedestrian detection keeps running.
package main

import (
	"fmt"
	"log"

	"advdet/internal/eval"
	"advdet/internal/fpga"
	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/pipeline"
	"advdet/internal/pr"
	"advdet/internal/soc"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

func main() {
	log.SetFlags(0)

	// 1. The animal configuration must fit the partition floorplanned
	//    for the largest vehicle configuration — no extra fabric.
	fp := fpga.DefaultFloorplan()
	configs := [][]fpga.Module{fpga.DayDuskModules(), fpga.DarkModules(), fpga.AnimalModules()}
	if err := fp.Verify(configs, 1.1); err != nil {
		log.Fatalf("animal configuration does not fit: %v", err)
	}
	animal := fpga.Sum(fpga.AnimalModules())
	u := animal.UtilPercent(fpga.XC7Z100)
	fmt.Printf("animal configuration utilization: %.0f%% LUT / %.0f%% FF / %.0f%% BRAM / %.0f%% DSP\n",
		u[0], u[1], u[2], u[3])
	fmt.Println("fits the existing reconfigurable partition: yes (no extra resources)")

	// 2. Train the animal detector and check it works.
	fmt.Println("\ntraining animal HOG+SVM...")
	train := synth.AnimalDataset(1, pipeline.AnimalWindowW, pipeline.AnimalWindowH, 80, 80, synth.Day)
	model, err := pipeline.TrainCropSVM(train, hog.DefaultConfig(), pipeline.AnimalWindowW, pipeline.AnimalWindowH, svm.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	det := pipeline.NewAnimalDetector(model)
	test := synth.AnimalDataset(2, pipeline.AnimalWindowW, pipeline.AnimalWindowH, 40, 40, synth.Day)
	c := eval.EvaluateCrops(det.ClassifyCrop, test.Pos, test.Neg)
	fmt.Printf("animal crop classification: %s\n", c)

	// 3. Stage all three bitstreams and swap on a drive that leaves
	//    the city.
	z := soc.NewZynq()
	ctrl := pr.NewDMAICAP()
	bits := fp.PartialBitstreamBytes()
	for _, name := range []string{"day-dusk", "dark", "animal"} {
		ctrl.Stage(z, name, bits, nil)
	}
	z.Sim.Run()
	fmt.Printf("\nstaged 3 partial bitstreams of %.1f MB in PL DDR\n", float64(bits)/1e6)

	swap := func(to string) {
		start := z.Sim.Now()
		if err := ctrl.ReconfigureStaged(z, to, func() {
			ms := soc.Seconds(z.Sim.Now()-start) * 1e3
			fmt.Printf("  swapped to %-9s in %.2f ms (pedestrian path uninterrupted)\n", to, ms)
		}); err != nil {
			log.Fatal(err)
		}
		z.Sim.Run()
	}
	fmt.Println("drive: urban -> countryside -> urban night")
	swap("animal")   // leaving the city: vehicle slot hosts animal detection
	swap("day-dusk") // back among traffic
	swap("dark")     // night falls

	// 4. Show a countryside detection.
	crop := synth.AnimalCrop(synth.NewRNG(9), 128, 64, synth.Day)
	if det.ClassifyCrop(img.RGBToGray(crop)) {
		fmt.Println("\ncountryside frame: animal detected ahead — braking profile engaged")
	} else {
		fmt.Println("\ncountryside frame: no animal found")
	}
}
