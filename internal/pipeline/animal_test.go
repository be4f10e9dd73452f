package pipeline

import (
	"testing"

	"advdet/internal/eval"
	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

func trainAnimal(t *testing.T, seed uint64) *HOGDetector {
	t.Helper()
	ds := synth.AnimalDataset(seed, AnimalWindowW, AnimalWindowH, 60, 60, synth.Day)
	m, err := TrainCropSVM(ds, hog.DefaultConfig(), AnimalWindowW, AnimalWindowH, svm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return NewAnimalDetector(m)
}

func TestAnimalClassifyCrops(t *testing.T) {
	det := trainAnimal(t, 1)
	test := synth.AnimalDataset(2, AnimalWindowW, AnimalWindowH, 40, 40, synth.Day)
	c := eval.EvaluateCrops(det.ClassifyCrop, test.Pos, test.Neg)
	if c.Accuracy() < 0.85 {
		t.Fatalf("animal accuracy %v: %v", c.Accuracy(), c)
	}
}

func TestAnimalRejectsVehicles(t *testing.T) {
	// Cars are not animals: the animal model must reject most vehicle
	// crops.
	det := trainAnimal(t, 3)
	fp := 0
	for s := uint64(0); s < 20; s++ {
		crop := img.RGBToGray(synth.VehicleCrop(synth.NewRNG(400+s), 64, 64, synth.Day))
		if det.ClassifyCrop(crop) {
			fp++
		}
	}
	if fp > 6 {
		t.Fatalf("animal model fired on %d/20 vehicles", fp)
	}
}

func TestAnimalDetectInFrame(t *testing.T) {
	det := trainAnimal(t, 5)
	frame := img.NewGray(192, 96)
	frame.Fill(110)
	crop := img.RGBToGray(synth.AnimalCrop(synth.NewRNG(6), AnimalWindowW, AnimalWindowH, synth.Day))
	gt := img.Rect{X0: 64, Y0: 32, X1: 64 + AnimalWindowW, Y1: 32 + AnimalWindowH}
	for y := 0; y < crop.H; y++ {
		for x := 0; x < crop.W; x++ {
			frame.Set(gt.X0+x, gt.Y0+y, crop.At(x, y))
		}
	}
	dets := det.Detect(frame)
	hit := false
	for _, d := range dets {
		if d.Kind != KindAnimal {
			t.Fatalf("detection kind %v", d.Kind)
		}
		if d.Box.IoU(gt) > 0.3 {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("animal not localized among %d detections", len(dets))
	}
}

func TestKindAnimalString(t *testing.T) {
	if KindAnimal.String() != "animal" {
		t.Fatal("KindAnimal string wrong")
	}
}

func TestAnimalCropDeterministicAndSized(t *testing.T) {
	a := synth.AnimalCrop(synth.NewRNG(7), 64, 32, synth.Day)
	b := synth.AnimalCrop(synth.NewRNG(7), 64, 32, synth.Day)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("AnimalCrop not deterministic")
		}
	}
	if a.W != 64 || a.H != 32 {
		t.Fatal("wrong crop size")
	}
}
