package pipeline

import (
	"context"
	"runtime"
	"testing"

	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

// fullMarginDetect is the exact reference for the early-reject scan.
// It rebuilds each pyramid level's block grid serially, keeps every
// window whose full svm.BlockModel.WindowMargin exceeds the detector's
// threshold, in level-major raster order, and applies the detector's
// NMS. There is no early exit, no pooled scratch and no fan-out.
func fullMarginDetect(t *testing.T, d *HOGDetector, g *img.Gray) []Detection {
	t.Helper()
	cell := d.HOG.CellSize
	if d.Stride%cell != 0 {
		t.Fatalf("stride %d is off the %d-px cell grid; the block path does not apply", d.Stride, cell)
	}
	bw, bh := d.HOG.BlocksFor(d.WinW, d.WinH)
	bm, err := svm.NewBlockModel(d.Model, bw, bh, d.HOG.BlockCells*d.HOG.BlockCells*d.HOG.Bins)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var dets []Detection
	for _, sz := range img.PyramidSizes(g.W, g.H, d.Scale, d.WinW, d.WinH) {
		level := img.ResizeGray(g, sz[0], sz[1])
		var fm hog.FeatureMap
		if err := fm.ComputeCtx(ctx, d.HOG, level, 1, new(hog.Scratch)); err != nil {
			t.Fatal(err)
		}
		var bg hog.BlockGrid
		if err := bg.ComputeCtx(ctx, &fm, 1); err != nil {
			t.Fatal(err)
		}
		nbx, nby := bg.Dims()
		lat := svm.Lattice{
			NBX: nbx, NBY: nby,
			StepX: d.Stride / cell, StepY: d.Stride / cell,
			NAX: scanPositions(level.W, d.WinW, d.Stride), NAY: scanPositions(level.H, d.WinH, d.Stride),
			BlockStride: d.HOG.BlockStride,
		}
		if lat.NAX == 0 || lat.NAY == 0 {
			continue
		}
		if err := bm.CheckLattice(lat, len(bg.Data())); err != nil {
			t.Fatal(err)
		}
		fx := float64(g.W) / float64(level.W)
		fy := float64(g.H) / float64(level.H)
		for ay := 0; ay < lat.NAY; ay++ {
			for ax := 0; ax < lat.NAX; ax++ {
				m := bm.WindowMargin(bg.Data(), lat, ax, ay)
				if m <= d.DetectThresh {
					continue
				}
				x, y := ax*d.Stride, ay*d.Stride
				dets = append(dets, Detection{Box: img.Rect{
					X0: int(float64(x) * fx), Y0: int(float64(y) * fy),
					X1: int(float64(x+d.WinW) * fx), Y1: int(float64(y+d.WinH) * fy),
				}, Score: m, Kind: d.Kind})
			}
		}
	}
	return NMS(dets, d.NMSIoU)
}

// requireSameDetections asserts got is byte-identical to want:
// same boxes, kinds, order, and bitwise-equal scores.
func requireSameDetections(t *testing.T, label string, got, want []Detection) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d detections, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: detection %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestEarlyRejectMatchesFullMargin is the early exit's exactness
// gate: for every scan kind and worker count, the early-reject scan
// must be byte-identical — boxes, kinds, order, and bitwise scores —
// to the full-margin reference, which scores every window with
// WindowMargin. The early exit's surviving windows re-sum their
// partials in canonical order, so even the float rounding agrees.
func TestEarlyRejectMatchesFullMargin(t *testing.T) {
	for _, tc := range blockEquivalenceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.scan(t, 1, scanVariant{fullMargin: true})
			if len(ref) == 0 {
				t.Fatalf("%s: full-margin scan found nothing; scene too easy to miss a regression", tc.name)
			}
			for _, workers := range []int{1, 2, runtime.NumCPU()} {
				got := tc.scan(t, workers, scanVariant{})
				requireSameDetections(t, tc.name, got, ref)
			}
		})
	}
}

// TestReleaseScanScratchClearsResults is the fails-pre-fix regression
// for the result-arena leak: when a scan's task count shrinks between
// borrows, the rows of the larger scan parked beyond the new length
// must be dropped on release, or the pooled scratch pins their
// detection slices (and transitively the frames they were assembled
// from) indefinitely.
func TestReleaseScanScratchClearsResults(t *testing.T) {
	s := new(scanScratch)
	_, results := s.setTasks(10)
	for i := range results {
		results[i] = []Detection{{Score: float64(i)}}
	}
	backing := results[:cap(results)]
	s.setTasks(3) // a smaller frame's scan
	releaseScanScratch(s)
	for i := range backing {
		if backing[i] != nil {
			t.Fatalf("release left results[%d] populated after shrink; pooled scratch pins past-frame detections", i)
		}
	}
	// Claim the scratch back so the doctored state can't leak into a
	// concurrently running test via the pool.
	if got := borrowScanScratch(); got != s {
		scanPool.Put(got)
	}
}

// TestSetLevelsInvalidatesShrunkEntries is the fails-pre-fix
// regression for the per-level arena seam: a pyramid that shrinks
// between borrows must not leave levels beyond the new count holding
// the previous scan's lattices or anchor widths — state nothing
// re-derives, which any later read would interpret as current.
func TestSetLevelsInvalidatesShrunkEntries(t *testing.T) {
	s := new(scanScratch)
	s.setLevels(5)
	live := svm.Lattice{NAX: 7, NAY: 7, NBX: 9, NBY: 9, StepX: 1, StepY: 1, BlockStride: 1}
	for i := 0; i < 5; i++ {
		s.lats[i] = live
		s.nax[i] = 7
	}
	grid := s.grids[4]
	s.setLevels(2)
	for i := 2; i < 5; i++ {
		if s.lats[i] != (svm.Lattice{}) || s.nax[i] != 0 {
			t.Fatalf("level %d kept stale lattice %+v / nax %d after shrink", i, s.lats[i], s.nax[i])
		}
	}
	for i := 0; i < 2; i++ {
		if s.lats[i] != live || s.nax[i] != 7 {
			t.Fatalf("level %d lost live state on shrink", i)
		}
	}
	if s.grids[4] != grid {
		t.Fatal("shrink freed a reusable buffer instead of keeping it")
	}
}

// TestShrinkThenRescan drives the shrink seams end to end: a large
// scan grows the pooled arenas, then a smaller frame must still score
// byte-identically to the descriptor oracle, with and without a
// temporal cache — any stale grid or lattice surviving the shrink
// shows up here as a phantom or missing detection.
func TestShrinkThenRescan(t *testing.T) {
	det := NewDayDuskDetector(trainSmall(t, synth.DayDataset(820, 64, 64, 40, 40)))
	det.DetectThresh = -0.25
	big := scanScene(821, 512, 320)
	small := scanScene(822, 160, 112)
	ctx := context.Background()
	oracle := *det
	oracle.NoBlockResponse = true
	for _, v := range []struct {
		name string
		set  func(d *HOGDetector)
	}{
		{"early", func(d *HOGDetector) {}},
		{"temporal", func(d *HOGDetector) { d.Temporal = NewTemporalCache() }},
	} {
		t.Run(v.name, func(t *testing.T) {
			d := *det
			v.set(&d)
			if _, err := d.DetectCtx(ctx, big, 1); err != nil {
				t.Fatal(err)
			}
			got, err := d.DetectCtx(ctx, small, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.DetectCtx(ctx, small, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("shrink rescan: %d detections, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Box != want[i].Box || got[i].Kind != want[i].Kind {
					t.Fatalf("shrink rescan: detection %d = %+v, want %+v", i, got[i], want[i])
				}
			}
		})
	}
}
