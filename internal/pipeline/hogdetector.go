package pipeline

import (
	"context"
	"fmt"

	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

// Window geometries of the shipped HOG+SVM detectors.
const (
	// VehicleWindow is the classification window side for the day/dusk
	// vehicle detector (rear views are roughly square).
	VehicleWindow = 64
	// PedWindowW x PedWindowH is the pedestrian window: upright 1:2
	// aspect, as in the DAC'17 multi-scale pedestrian pipeline the
	// static partition instantiates.
	PedWindowW = 32
	PedWindowH = 64
	// AnimalWindowW x AnimalWindowH is the animal window: quadrupeds in
	// side profile are wider than tall.
	AnimalWindowW = 64
	AnimalWindowH = 32
)

// HOGDetector is the HOG+SVM pipeline of Fig. 2. One datapath serves
// every HOG detector of the system; only the BRAM-resident model and
// the window geometry differ:
//
//   - day and dusk vehicle detection share the hardware and swap only
//     the model, which is why the two form a single reconfigurable
//     configuration in the paper (NewDayDuskDetector);
//   - the static-partition pedestrian detector keeps running during
//     partial reconfiguration (NewPedestrianDetector);
//   - the optional animal detector the paper's introduction motivates
//     can occupy the reconfigurable partition on countryside roads
//     (NewAnimalDetector).
type HOGDetector struct {
	HOG   hog.Config
	Model *svm.Model
	// WinW x WinH is the classification window; Kind tags every
	// detection the scan emits.
	WinW, WinH int
	Kind       Kind
	Stride     int     // window step in pixels at each pyramid level
	Scale      float64 // pyramid downscale per level
	Thresh     float64 // margin threshold for single-crop classification
	// DetectThresh is the (stricter) margin threshold for full-frame
	// scanning, where the detector sees thousands of windows per frame
	// and near-boundary responses would flood the output with false
	// positives.
	DetectThresh float64
	NMSIoU       float64
	// NoBlockResponse disables the block-response scoring engine and
	// scores every window through its full descriptor. Benchmarks and
	// equivalence tests use it; production leaves it false.
	NoBlockResponse bool
	// Temporal, when non-nil, reuses the feature/block stack and the
	// window rows of standalone scans (DetectCtx, DetectTimedCtx)
	// across consecutive frames, recomputing only what each frame's
	// dirty tiles invalidate (see NewTemporalCache). Byte-identical
	// output; a cache binds this detector to one frame sequence and
	// must not be shared across detectors or concurrent scans.
	// DetectStackCtx ignores it: the frame stack and row cache it is
	// handed play its part.
	Temporal *TemporalCache
}

// DayDuskDetector is HOGDetector under its former name. It remains
// only because the frozen perfbench module names it.
type DayDuskDetector = HOGDetector

// PedestrianDetector is HOGDetector under its former name. It remains
// only because the frozen perfbench module names it.
type PedestrianDetector = HOGDetector

// newHOGDetector wraps a trained model with the default scan settings
// shared by every preset.
func newHOGDetector(m *svm.Model, winW, winH int, kind Kind, stride int, detectThresh float64) *HOGDetector {
	return &HOGDetector{
		HOG:          hog.DefaultConfig(),
		Model:        m,
		WinW:         winW,
		WinH:         winH,
		Kind:         kind,
		Stride:       stride,
		Scale:        1.25,
		Thresh:       0,
		DetectThresh: detectThresh,
		NMSIoU:       0.3,
	}
}

// NewDayDuskDetector wraps a trained day or dusk vehicle model.
func NewDayDuskDetector(m *svm.Model) *HOGDetector {
	return newHOGDetector(m, VehicleWindow, VehicleWindow, KindVehicle, 16, 0.5)
}

// NewPedestrianDetector wraps a trained pedestrian model.
func NewPedestrianDetector(m *svm.Model) *HOGDetector {
	return newHOGDetector(m, PedWindowW, PedWindowH, KindPedestrian, 8, 1.0)
}

// NewAnimalDetector wraps a trained animal model.
func NewAnimalDetector(m *svm.Model) *HOGDetector {
	return newHOGDetector(m, AnimalWindowW, AnimalWindowH, KindAnimal, 8, 0.5)
}

// ClassifyCrop runs the single-window classification used in the
// Table I evaluation: the crop is resized to the detector's window and
// scored against the model.
func (d *HOGDetector) ClassifyCrop(g *img.Gray) bool {
	return d.MarginCrop(g) > d.Thresh
}

// MarginCrop returns the SVM margin of a crop.
func (d *HOGDetector) MarginCrop(g *img.Gray) float64 {
	if g.W != d.WinW || g.H != d.WinH {
		g = img.ResizeGray(g, d.WinW, d.WinH)
	}
	return d.Model.Margin(d.HOG.Extract(g))
}

// Detect scans the full frame at multiple scales and returns
// NMS-filtered detections tagged with the detector's Kind. It runs on
// the calling goroutine without cancellation; see DetectCtx for the
// parallel engine.
func (d *HOGDetector) Detect(g *img.Gray) []Detection {
	dets, _ := d.DetectCtx(context.Background(), g, 1) // lint:ctxroot serial wrapper; background ctx cannot fail
	return dets
}

// DetectCtx is Detect with cancellation and a bounded worker pool:
// the per-frame HOG feature cache is computed once per pyramid level
// and window rows are fanned out across workers goroutines
// (workers <= 0 means GOMAXPROCS). Output is identical for every worker
// count. On cancellation it returns the context's error wrapped.
func (d *HOGDetector) DetectCtx(ctx context.Context, g *img.Gray, workers int) ([]Detection, error) {
	return d.DetectTimedCtx(ctx, g, workers, nil)
}

// DetectTimedCtx is DetectCtx with per-stage wall-clock attribution;
// tm may be nil and is written only on success.
func (d *HOGDetector) DetectTimedCtx(ctx context.Context, g *img.Gray, workers int, tm *ScanTimings) ([]Detection, error) {
	if tc := d.Temporal; tc != nil {
		tc.stack.begin(g, d.HOG, d.Scale)
		defer tc.stack.end()
		return d.detect(ctx, tc.stack, &tc.rows, workers, tm)
	}
	st := borrowStack()
	defer releaseStack(st)
	st.begin(g, d.HOG, d.Scale)
	return d.detect(ctx, st, nil, workers, tm)
}

// DetectStackCtx is DetectTimedCtx over the frame fs holds: the scan
// reads the frame's shared pyramid, feature maps and block grids,
// building on first use whatever no earlier scan of the frame built,
// and on a temporal stack serves unchanged window rows from rc (which
// may be nil). A detector whose HOG config or pyramid scale differs
// from fs's scans the frame's gray image on a private pooled stack.
// Output is byte-identical to DetectTimedCtx on the frame's gray image
// with no temporal cache.
func (d *HOGDetector) DetectStackCtx(ctx context.Context, fs *FrameStack, rc *RowCache, workers int, tm *ScanTimings) ([]Detection, error) {
	st := fs.stack()
	if d.HOG != fs.cfg || d.Scale != fs.scale {
		own := borrowStack()
		defer releaseStack(own)
		own.begin(st.levels[0], d.HOG, d.Scale)
		st, rc = own, nil
	}
	return d.detect(ctx, st, rc, workers, tm)
}

// detect runs the scan over st and applies NMS.
func (d *HOGDetector) detect(ctx context.Context, st *hogStack, rc *RowCache, workers int, tm *ScanTimings) ([]Detection, error) {
	dets, err := d.scan(ctx, st, rc, workers, tm)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %v detect: %w", d.Kind, err)
	}
	return NMS(dets, d.NMSIoU), nil
}

// FeatureExtractor turns a fixed-size grayscale window into a feature
// vector. hog.Config and hog.PIHOG both satisfy it, so the pipeline
// can be trained with either feature (the PIHOG comparison of the
// related work is a benchmark in this repo).
type FeatureExtractor interface {
	Extract(*img.Gray) []float64
}

// TrainCropSVM extracts features from every crop of the dataset,
// resized to the winW x winH window, and trains a linear SVM — the
// Fig. 1 training flow (HOG feature extraction + LibLINEAR).
func TrainCropSVM(ds *synth.Dataset, fx FeatureExtractor, winW, winH int, opts svm.Options) (*svm.Model, error) {
	var p svm.Problem
	add := func(crops []*img.Gray, label float64) {
		for _, g := range crops {
			crop := g
			if crop.W != winW || crop.H != winH {
				crop = img.ResizeGray(crop, winW, winH)
			}
			p.X = append(p.X, fx.Extract(crop))
			p.Y = append(p.Y, label)
		}
	}
	add(ds.Pos, 1)
	add(ds.Neg, -1)
	m, err := svm.Train(p, opts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: train crop SVM: %w", err)
	}
	return m, nil
}

// CombineDatasets merges two crop datasets (the paper's "combined"
// model is trained on the union of UPM and SYSU training data).
func CombineDatasets(name string, a, b *synth.Dataset) *synth.Dataset {
	out := &synth.Dataset{Name: name, W: a.W, H: a.H}
	out.Pos = append(append([]*img.Gray{}, a.Pos...), b.Pos...)
	out.Neg = append(append([]*img.Gray{}, a.Neg...), b.Neg...)
	out.VeryDark = append(append([]bool{}, a.VeryDark...), b.VeryDark...)
	for len(out.VeryDark) < len(out.Pos) {
		out.VeryDark = append(out.VeryDark, false)
	}
	return out
}
