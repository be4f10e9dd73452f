package pipeline

import (
	"testing"

	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

// TestPresetsPinGeometryAndDefaults pins each preset's window geometry,
// detection kind and scan defaults: the three presets share one
// detector type and differ only in these values.
func TestPresetsPinGeometryAndDefaults(t *testing.T) {
	m := &svm.Model{W: make([]float64, 1)}
	for _, tc := range []struct {
		name         string
		det          *HOGDetector
		winW, winH   int
		kind         Kind
		stride       int
		detectThresh float64
	}{
		{"day-dusk", NewDayDuskDetector(m), 64, 64, KindVehicle, 16, 0.5},
		{"pedestrian", NewPedestrianDetector(m), 32, 64, KindPedestrian, 8, 1.0},
		{"animal", NewAnimalDetector(m), 64, 32, KindAnimal, 8, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.det
			if d.WinW != tc.winW || d.WinH != tc.winH {
				t.Fatalf("window %dx%d, want %dx%d", d.WinW, d.WinH, tc.winW, tc.winH)
			}
			if d.Kind != tc.kind {
				t.Fatalf("kind %v, want %v", d.Kind, tc.kind)
			}
			if d.Stride != tc.stride || d.DetectThresh != tc.detectThresh {
				t.Fatalf("stride %d detect threshold %v, want %d and %v",
					d.Stride, d.DetectThresh, tc.stride, tc.detectThresh)
			}
			if d.Scale != 1.25 || d.Thresh != 0 || d.NMSIoU != 0.3 {
				t.Fatalf("scale %v threshold %v NMS IoU %v, want 1.25, 0 and 0.3", d.Scale, d.Thresh, d.NMSIoU)
			}
			if d.HOG != hog.DefaultConfig() {
				t.Fatalf("HOG config %+v, want the default %+v", d.HOG, hog.DefaultConfig())
			}
			if d.Model != m || d.NoBlockResponse || d.Temporal != nil {
				t.Fatal("preset must wrap the given model on the default scan path without a cache")
			}
		})
	}
}

// TestClassifyCropResizesArbitrarySizes checks that every preset
// scores a crop of any size by resizing it to its own window: a
// double-size positive is accepted, with exactly the margin of the
// crop resized by hand.
func TestClassifyCropResizesArbitrarySizes(t *testing.T) {
	for _, tc := range []struct {
		name string
		det  func(t *testing.T) *HOGDetector
		crop *img.Gray
	}{
		{"day", func(t *testing.T) *HOGDetector {
			return NewDayDuskDetector(trainSmall(t, synth.DayDataset(50, 64, 64, 40, 40)))
		}, img.RGBToGray(synth.VehicleCrop(synth.NewRNG(51), 128, 128, synth.Day))},
		{"pedestrian", func(t *testing.T) *HOGDetector { return trainPed(t, 5) },
			img.RGBToGray(synth.PedestrianCrop(synth.NewRNG(6), 64, 128, synth.Day))},
		{"animal", func(t *testing.T) *HOGDetector { return trainAnimal(t, 8) },
			img.RGBToGray(synth.AnimalCrop(synth.NewRNG(9), 128, 64, synth.Day))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.det(t)
			if !d.ClassifyCrop(tc.crop) {
				t.Fatalf("%dx%d %s crop rejected", tc.crop.W, tc.crop.H, tc.name)
			}
			want := d.MarginCrop(img.ResizeGray(tc.crop, d.WinW, d.WinH))
			if got := d.MarginCrop(tc.crop); got != want {
				t.Fatalf("margin %v, want %v from the crop resized to %dx%d", got, want, d.WinW, d.WinH)
			}
		})
	}
}
