package models

import (
	"testing"

	"advdet/internal/dbn"
	"advdet/internal/hog"
	"advdet/internal/pipeline"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

// smallBundle trains a minimal but complete bundle.
func smallBundle(t *testing.T) *Bundle {
	t.Helper()
	hogCfg := hog.DefaultConfig()
	opts := svm.DefaultOptions()
	day, err := pipeline.TrainCropSVM(synth.DayDataset(1, 64, 64, 20, 20), hogCfg, pipeline.VehicleWindow, pipeline.VehicleWindow, opts)
	if err != nil {
		t.Fatal(err)
	}
	dusk, err := pipeline.TrainCropSVM(synth.DuskDataset(2, 64, 64, 20, 20, 0), hogCfg, pipeline.VehicleWindow, pipeline.VehicleWindow, opts)
	if err != nil {
		t.Fatal(err)
	}
	ped, err := pipeline.TrainCropSVM(
		synth.PedestrianDataset(3, pipeline.PedWindowW, pipeline.PedWindowH, 20, 20, synth.Day), hogCfg,
		pipeline.PedWindowW, pipeline.PedWindowH, opts)
	if err != nil {
		t.Fatal(err)
	}
	X, labels := synth.TaillightWindowSet(4, 20)
	cfg := dbn.DefaultConfig()
	cfg.PretrainOpts.Epochs = 2
	cfg.FineTuneIter = 5
	net, err := dbn.Train(X, labels, cfg, synth.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	pair, err := pipeline.TrainPairSVM(6, 100, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &Bundle{Day: day, Dusk: dusk, Pedestrian: ped, Taillight: net, Pair: pair}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	b := smallBundle(t)
	dir := t.TempDir()
	if err := b.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check: identical predictions on a probe crop.
	probe := synth.DayDataset(9, 64, 64, 1, 0).Pos[0]
	a := pipeline.NewDayDuskDetector(b.Day)
	c := pipeline.NewDayDuskDetector(got.Day)
	if a.MarginCrop(probe) != c.MarginCrop(probe) {
		t.Fatal("day model changed across save/load")
	}
	if got.Combined != nil {
		t.Fatal("combined should be absent when not saved")
	}
}

func TestSaveLoadWithCombined(t *testing.T) {
	b := smallBundle(t)
	b.Combined = b.Day // any model works for the layout test
	dir := t.TempDir()
	if err := b.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Combined == nil {
		t.Fatal("combined model lost")
	}
}

func TestValidateMissing(t *testing.T) {
	b := smallBundle(t)
	b.Taillight = nil
	if err := b.Validate(); err == nil {
		t.Fatal("missing DBN passed validation")
	}
	if err := b.Save(t.TempDir()); err == nil {
		t.Fatal("incomplete bundle saved")
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(t.TempDir() + "/nope"); err == nil {
		t.Fatal("missing directory loaded")
	}
}

func TestDetectorsAssembly(t *testing.T) {
	b := smallBundle(t)
	day, dusk, dark, ped, err := b.Detectors()
	if err != nil {
		t.Fatal(err)
	}
	if day == nil || dusk == nil || dark == nil || ped == nil {
		t.Fatal("nil detector in assembly")
	}
	b.Pair = nil
	if _, _, _, _, err := b.Detectors(); err == nil {
		t.Fatal("incomplete bundle assembled")
	}
}
