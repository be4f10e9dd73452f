package pipeline

import (
	"testing"

	"advdet/internal/eval"
	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

// trainPed trains the static-partition pedestrian model. Like the
// paper's static pipeline, one model serves every lighting condition,
// so it is trained on a mixed day/dusk/dark crop set.
func trainPed(t *testing.T, seed uint64) *HOGDetector {
	t.Helper()
	day := synth.PedestrianDataset(seed, PedWindowW, PedWindowH, 50, 50, synth.Day)
	dusk := synth.PedestrianDataset(seed+1, PedWindowW, PedWindowH, 30, 30, synth.Dusk)
	dark := synth.PedestrianDataset(seed+2, PedWindowW, PedWindowH, 30, 30, synth.Dark)
	ds := CombineDatasets("ped-all", CombineDatasets("ped-dd", day, dusk), dark)
	m, err := TrainCropSVM(ds, hog.DefaultConfig(), PedWindowW, PedWindowH, svm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return NewPedestrianDetector(m)
}

func TestPedestrianClassifyCrops(t *testing.T) {
	det := trainPed(t, 1)
	test := synth.PedestrianDataset(2, PedWindowW, PedWindowH, 40, 40, synth.Day)
	c := eval.EvaluateCrops(det.ClassifyCrop, test.Pos, test.Neg)
	if c.Accuracy() < 0.85 {
		t.Fatalf("pedestrian accuracy %v: %v", c.Accuracy(), c)
	}
}

func TestPedestrianWorksAtNightToo(t *testing.T) {
	// The static partition runs in every condition; the detector must
	// retain most of its accuracy on dark pedestrian crops.
	det := trainPed(t, 3)
	test := synth.PedestrianDataset(4, PedWindowW, PedWindowH, 40, 40, synth.Dark)
	c := eval.EvaluateCrops(det.ClassifyCrop, test.Pos, test.Neg)
	if c.Accuracy() < 0.6 {
		t.Fatalf("night pedestrian accuracy %v: %v", c.Accuracy(), c)
	}
}

func TestPedestrianDetectInScene(t *testing.T) {
	// Controlled full-frame scan: a pedestrian crop is placed at a
	// known position in a road-textured frame at a pyramid-reachable
	// scale; Detect must localize it through scanning, coordinate
	// mapping and NMS.
	det := trainPed(t, 7)
	frame := img.NewGray(256, 160)
	frame.Fill(120)
	ped := img.RGBToGray(synth.PedestrianCrop(synth.NewRNG(808), PedWindowW, PedWindowH, synth.Day))
	gt := img.Rect{X0: 96, Y0: 48, X1: 96 + PedWindowW, Y1: 48 + PedWindowH}
	for y := 0; y < ped.H; y++ {
		for x := 0; x < ped.W; x++ {
			frame.Set(gt.X0+x, gt.Y0+y, ped.At(x, y))
		}
	}
	dets := det.Detect(frame)
	hit := false
	for _, d := range dets {
		if d.Box.IoU(gt) > 0.3 {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("pedestrian not localized among %d detections", len(dets))
	}
}
