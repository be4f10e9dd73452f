// Package pipeline implements the paper's three detection pipelines:
//
//   - day/dusk vehicle detection: HOG features + linear SVM (Fig. 2),
//   - dark vehicle detection: dual threshold -> downsample -> closing
//     -> sliding-window DBN -> spatial pair matching with an SVM
//     (Figs. 3 and 4),
//   - pedestrian detection: multi-scale HOG + SVM on the static
//     partition (after Hemmati et al., DAC'17).
//
// Each pipeline has a software-exact implementation here; the SoC
// model accounts its cycle cost separately.
//
// lint:detpath
package pipeline

import (
	"sort"

	"advdet/internal/img"
)

// Kind tags what a detection is.
type Kind int

const (
	KindVehicle Kind = iota
	KindPedestrian
	KindAnimal
)

func (k Kind) String() string {
	switch k {
	case KindPedestrian:
		return "pedestrian"
	case KindAnimal:
		return "animal"
	default:
		return "vehicle"
	}
}

// Detection is one detected object in frame coordinates.
type Detection struct {
	Box   img.Rect
	Score float64
	Kind  Kind
}

// Boxes extracts just the rectangles.
func Boxes(dets []Detection) []img.Rect {
	out := make([]img.Rect, len(dets))
	for i, d := range dets {
		out[i] = d.Box
	}
	return out
}

// NMS performs greedy non-maximum suppression: detections are visited
// in decreasing score order and any detection overlapping an already
// accepted one with IoU above the threshold is discarded.
func NMS(dets []Detection, iouThresh float64) []Detection {
	sorted := make([]Detection, len(dets))
	copy(sorted, dets)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Score > sorted[j].Score })
	var kept []Detection
	for _, d := range sorted {
		ok := true
		for _, k := range kept {
			if d.Box.IoU(k.Box) > iouThresh {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, d)
		}
	}
	return kept
}
