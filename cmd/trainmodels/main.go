// Command trainmodels trains every model of the adaptive detection
// system from the synthetic datasets (Fig. 1's training flow) and
// writes them to a model directory consumable by cmd/advdet -models:
//
//	day.svm, dusk.svm, combined.svm — vehicle HOG+SVM models,
//	pedestrian.svm                  — static-path pedestrian model,
//	taillight.dbn, pair.svm         — the dark pipeline's networks.
//
// Usage:
//
//	trainmodels [-out models] [-seed 1] [-full]
package main

import (
	"flag"
	"fmt"
	"log"

	"advdet/internal/dbn"
	"advdet/internal/eval"
	"advdet/internal/hog"
	"advdet/internal/models"
	"advdet/internal/pipeline"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trainmodels: ")

	out := flag.String("out", "models", "output directory for model files")
	seed := flag.Uint64("seed", 1, "dataset generation seed")
	full := flag.Bool("full", false, "train at Table I scale (slower)")
	flag.Parse()

	nTrain, nWin := 80, 100
	if *full {
		nTrain, nWin = 300, 250
	}

	hogCfg := hog.DefaultConfig()
	svmOpts := svm.DefaultOptions()
	bundle := &models.Bundle{}

	fmt.Printf("rendering datasets (seed=%d, %d crops/class)...\n", *seed, nTrain)
	dayDS := synth.DayDataset(*seed, 64, 64, nTrain, nTrain)
	duskDS := synth.DuskDataset(*seed+1, 64, 64, nTrain, nTrain, 0)
	combDS := pipeline.CombineDatasets("combined", dayDS, duskDS)

	train := func(name string, ds *synth.Dataset) *svm.Model {
		m, err := pipeline.TrainCropSVM(ds, hogCfg, pipeline.VehicleWindow, pipeline.VehicleWindow, svmOpts)
		if err != nil {
			log.Fatalf("train %s: %v", name, err)
		}
		det := pipeline.NewDayDuskDetector(m)
		c := eval.EvaluateCrops(det.ClassifyCrop, ds.Pos, ds.Neg)
		fmt.Printf("  %-10s train %s (%d iters)\n", name, c, m.Iters)
		return m
	}
	fmt.Println("training vehicle models (HOG + linear SVM, dual coordinate descent):")
	bundle.Day = train("day", dayDS)
	bundle.Dusk = train("dusk", duskDS)
	bundle.Combined = train("combined", combDS)

	fmt.Println("training pedestrian model (mixed day/dusk/dark):")
	pedDay := synth.PedestrianDataset(*seed+2, pipeline.PedWindowW, pipeline.PedWindowH, nTrain*5/8, nTrain*5/8, synth.Day)
	pedDusk := synth.PedestrianDataset(*seed+3, pipeline.PedWindowW, pipeline.PedWindowH, nTrain*3/8, nTrain*3/8, synth.Dusk)
	pedDark := synth.PedestrianDataset(*seed+4, pipeline.PedWindowW, pipeline.PedWindowH, nTrain*3/8, nTrain*3/8, synth.Dark)
	pedAll := pipeline.CombineDatasets("ped", pipeline.CombineDatasets("pd", pedDay, pedDusk), pedDark)
	pedModel, err := pipeline.TrainCropSVM(pedAll, hogCfg, pipeline.PedWindowW, pipeline.PedWindowH, svmOpts)
	if err != nil {
		log.Fatal(err)
	}
	bundle.Pedestrian = pedModel
	pedDet := pipeline.NewPedestrianDetector(pedModel)
	fmt.Printf("  pedestrian train %s\n", eval.EvaluateCrops(pedDet.ClassifyCrop, pedAll.Pos, pedAll.Neg))

	fmt.Println("training dark pipeline (DBN 81-20-8-4 + pair SVM):")
	dbnCfg := dbn.DefaultConfig()
	if !*full {
		dbnCfg.PretrainOpts.Epochs = 4
		dbnCfg.FineTuneIter = 30
	}
	X, labels := synth.TaillightWindowSet(*seed+5, nWin)
	net, err := dbn.Train(X, labels, dbnCfg, synth.NewRNG(*seed+6))
	if err != nil {
		log.Fatal(err)
	}
	bundle.Taillight = net
	fmt.Printf("  taillight DBN window accuracy %.1f%% (%d weight bytes)\n",
		100*net.Accuracy(X, labels), net.WeightBytes())

	bundle.Pair, err = pipeline.TrainPairSVM(*seed+7, 400, svmOpts)
	if err != nil {
		log.Fatal(err)
	}

	if err := bundle.Save(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bundle written to %s/\n", *out)
}
