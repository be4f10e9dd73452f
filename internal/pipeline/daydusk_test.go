package pipeline

import (
	"testing"

	"advdet/internal/eval"
	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

// trainSmall trains a model on a small dataset for test speed.
func trainSmall(t *testing.T, ds *synth.Dataset) *svm.Model {
	t.Helper()
	m, err := TrainCropSVM(ds, hog.DefaultConfig(), VehicleWindow, VehicleWindow, svm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func evalCrops(det *HOGDetector, ds *synth.Dataset) eval.Confusion {
	return eval.EvaluateCrops(det.ClassifyCrop, ds.Pos, ds.Neg)
}

func TestDayModelClassifiesDayCrops(t *testing.T) {
	train := synth.DayDataset(1, 64, 64, 60, 60)
	test := synth.DayDataset(2, 64, 64, 40, 40)
	det := NewDayDuskDetector(trainSmall(t, train))
	c := evalCrops(det, test)
	if c.Accuracy() < 0.85 {
		t.Fatalf("day-on-day accuracy %v too low: %v", c.Accuracy(), c)
	}
}

func TestDuskModelClassifiesDuskCrops(t *testing.T) {
	train := synth.DuskDataset(3, 64, 64, 60, 60, 0)
	test := synth.DuskDataset(4, 64, 64, 40, 40, 0)
	det := NewDayDuskDetector(trainSmall(t, train))
	c := evalCrops(det, test)
	if c.Accuracy() < 0.8 {
		t.Fatalf("dusk-on-dusk accuracy %v too low: %v", c.Accuracy(), c)
	}
}

func TestTableIShapeCrossConditions(t *testing.T) {
	// The central Table I claim: models specialize. The day model must
	// beat the dusk model on day data by a wide margin, and the dusk
	// model must lose most day positives (high FN), while the combined
	// model stays competitive on both.
	dayTrain := synth.DayDataset(10, 64, 64, 80, 80)
	duskTrain := synth.DuskDataset(11, 64, 64, 80, 80, 0)
	combTrain := CombineDatasets("combined", dayTrain, duskTrain)

	dayDet := NewDayDuskDetector(trainSmall(t, dayTrain))
	duskDet := NewDayDuskDetector(trainSmall(t, duskTrain))
	combDet := NewDayDuskDetector(trainSmall(t, combTrain))

	dayTest := synth.DayDataset(12, 64, 64, 60, 20)
	duskTest := synth.DuskDataset(13, 64, 64, 60, 40, 0)

	dayOnDay := evalCrops(dayDet, dayTest)
	duskOnDay := evalCrops(duskDet, dayTest)
	combOnDay := evalCrops(combDet, dayTest)
	dayOnDusk := evalCrops(dayDet, duskTest)
	duskOnDusk := evalCrops(duskDet, duskTest)
	combOnDusk := evalCrops(combDet, duskTest)

	if dayOnDay.Accuracy() <= duskOnDay.Accuracy() {
		t.Errorf("day model (%v) should beat dusk model (%v) on day data",
			dayOnDay.Accuracy(), duskOnDay.Accuracy())
	}
	if duskOnDay.FN <= duskOnDay.TP {
		t.Errorf("dusk model on day data should miss most positives: %v", duskOnDay)
	}
	if duskOnDusk.Accuracy() <= dayOnDusk.Accuracy() {
		t.Errorf("dusk model (%v) should beat day model (%v) on dusk data",
			duskOnDusk.Accuracy(), dayOnDusk.Accuracy())
	}
	if combOnDay.Accuracy() < 0.75 {
		t.Errorf("combined model collapsed on day data: %v", combOnDay)
	}
	if combOnDusk.Accuracy() < 0.75 {
		t.Errorf("combined model collapsed on dusk data: %v", combOnDusk)
	}
}

func TestVeryDarkPositivesDefeatHOGModels(t *testing.T) {
	// The justification for the dark pipeline: HOG+SVM models miss
	// most very dark positives.
	duskTrain := synth.DuskDataset(20, 64, 64, 60, 60, 0)
	det := NewDayDuskDetector(trainSmall(t, duskTrain))
	dark := synth.DuskDataset(21, 64, 64, 40, 1, 1.0) // all positives very dark
	c := evalCrops(det, dark)
	if c.Recall() > 0.5 {
		t.Fatalf("HOG+SVM recall %v on very dark positives; expected failure", c.Recall())
	}
}

func TestDetectFindsVehicleInScene(t *testing.T) {
	train := synth.DayDataset(30, 64, 64, 80, 80)
	det := NewDayDuskDetector(trainSmall(t, train))
	// Render a scene with one prominent vehicle.
	// The vehicle must reach the 64-pixel scan window (the pyramid
	// only downscales), so use a frame size whose near vehicles do.
	cfg := synth.SceneConfig{W: 480, H: 270, Cond: synth.Day, NumVehicles: 1}
	var sc *synth.Scene
	for seed := uint64(0); ; seed++ {
		if seed > 500 {
			t.Fatal("no suitable scene found in 500 seeds")
		}
		sc = synth.RenderScene(synth.NewRNG(40+seed), cfg)
		if len(sc.Vehicles) == 1 && sc.Vehicles[0].W() >= 60 {
			break
		}
	}
	dets := det.Detect(img.RGBToGray(sc.Frame))
	m := eval.MatchBoxes(sc.Vehicles, Boxes(dets), 0.25)
	if m.TP != 1 {
		t.Fatalf("vehicle not localized: %v (dets=%d)", m, len(dets))
	}
}

func TestCombineDatasets(t *testing.T) {
	a := synth.DayDataset(60, 32, 32, 3, 2)
	b := synth.DuskDataset(61, 32, 32, 4, 5, 0.5)
	c := CombineDatasets("c", a, b)
	if len(c.Pos) != 7 || len(c.Neg) != 7 {
		t.Fatalf("combined counts %d/%d", len(c.Pos), len(c.Neg))
	}
	if len(c.VeryDark) != len(c.Pos) {
		t.Fatal("VeryDark length mismatch")
	}
}
