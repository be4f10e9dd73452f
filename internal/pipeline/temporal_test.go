package pipeline

import (
	"context"
	"runtime"
	"testing"

	"advdet/internal/img"
	"advdet/internal/synth"
)

// tcScanKinds are the two scoring paths the temporal cache must
// compose with, byte for byte.
var tcScanKinds = []struct {
	name string
	set  func(d *HOGDetector)
}{
	{"early", func(d *HOGDetector) {}},
	{"descriptor", func(d *HOGDetector) { d.NoBlockResponse = true }},
}

// mutateRect perturbs the pixels of r in place, deterministically from
// seed, so warm scans see a realistic partial-dirty frame.
func mutateRect(g *img.Gray, r img.Rect, seed uint64) {
	rng := synth.NewRNG(seed)
	r = r.Intersect(img.Rect{X0: 0, Y0: 0, X1: g.W, Y1: g.H})
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			g.Pix[y*g.W+x] = uint8(rng.Intn(256))
		}
	}
}

// TestTemporalCacheByteIdentical is the tentpole's acceptance gate:
// for every scoring strategy and worker count, a cached scan of a cold
// frame, an unchanged warm frame, and a partially dirty warm frame
// produces exactly the detections of a cache-off scan of the same
// pixels.
func TestTemporalCacheByteIdentical(t *testing.T) {
	model := trainSmall(t, synth.DayDataset(740, 64, 64, 50, 50))
	cold := scanScene(741, 320, 200)
	warm := cold.Clone() // unchanged frame
	dirty := cold.Clone()
	mutateRect(dirty, img.Rect{X0: 96, Y0: 64, X1: 200, Y1: 160}, 742)
	frames := []struct {
		name  string
		frame *img.Gray
	}{{"cold", cold}, {"warm-unchanged", warm}, {"warm-partial-dirty", dirty}}

	ctx := context.Background()
	for _, kind := range tcScanKinds {
		t.Run(kind.name, func(t *testing.T) {
			ref := NewDayDuskDetector(model)
			ref.DetectThresh = -0.25 // loosen so the scene yields detections to compare
			kind.set(ref)
			want := make([][]Detection, len(frames))
			for i, f := range frames {
				dets, err := ref.DetectCtx(ctx, f.frame, 1)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = dets
			}
			if len(want[0]) == 0 {
				t.Fatal("reference scan found nothing; scene too easy to miss a regression")
			}
			for _, workers := range []int{1, 2, runtime.NumCPU()} {
				det := NewDayDuskDetector(model)
				det.DetectThresh = -0.25
				kind.set(det)
				det.Temporal = NewTemporalCache()
				for i, f := range frames {
					dets, err := det.DetectCtx(ctx, f.frame, workers)
					if err != nil {
						t.Fatal(err)
					}
					requireSameDetections(t, kind.name+"/"+f.name, dets, want[i])
				}
				// The warm-unchanged frame must have been served from
				// the cache, not silently rescanned.
				st := det.Temporal.Stats()
				if st.Hits == 0 {
					t.Fatalf("workers=%d: cache reported no tile hits over an unchanged frame (%+v)", workers, st)
				}
			}
		})
	}
}

// TestTemporalCacheShrinkInvalidates is the regression gate for the
// stale-tile-map class of bug: a frame whose width shrinks 640 -> 600
// keeps the same tile count (10 columns of 64 px) and constant-color
// tiles hash identically under either row stride, while the cell grid
// changes shape (80 -> 75 columns). Without the dimension guard the
// cache would serve the old geometry's cells; with it, each geometry
// change rescans cold. The sequence also regrows to the original size
// to cross the per-level arena shrink seam in both directions.
func TestTemporalCacheShrinkInvalidates(t *testing.T) {
	model := trainSmall(t, synth.DayDataset(750, 64, 64, 40, 40))
	mk := func(w, h int) *img.Gray {
		// Mostly constant frame with one textured band: constant tiles
		// are the hash-collision trap, the band keeps detections alive.
		g := img.NewGray(w, h)
		g.Fill(96)
		mutateRect(g, img.Rect{X0: 0, Y0: h / 3, X1: w, Y1: h/3 + 64}, uint64(w)*31+uint64(h))
		return g
	}
	frames := []*img.Gray{
		mk(640, 320),
		mk(600, 320), // same tile columns, narrower cell grid
		mk(640, 320), // regrow across the seam
		mk(320, 160), // shallower pyramid: fewer levels
		mk(640, 320), // regrow the pyramid
	}
	ctx := context.Background()
	ref := NewDayDuskDetector(model)
	det := NewDayDuskDetector(model)
	det.Temporal = NewTemporalCache()
	for i, f := range frames {
		want, err := ref.DetectCtx(ctx, f, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := det.DetectCtx(ctx, f, 1)
		if err != nil {
			t.Fatal(err)
		}
		requireSameDetections(t, "frame "+string(rune('0'+i)), got, want)
	}
}

// TestTemporalCacheRandomGeometries is the randomized property test:
// across 200 pyramid geometries and random dirty rectangles, a cached
// warm scan is byte-identical to a cache-off scan of the same pixels,
// under every scoring strategy in rotation.
func TestTemporalCacheRandomGeometries(t *testing.T) {
	model := trainSmall(t, synth.DayDataset(760, 64, 64, 40, 40))
	ctx := context.Background()
	rng := synth.NewRNG(761)
	for i := 0; i < 200; i++ {
		w := 96 + rng.Intn(160)
		h := 80 + rng.Intn(120)
		kind := tcScanKinds[i%len(tcScanKinds)]
		base := scanScene(uint64(762+i), w, h)

		ref := NewDayDuskDetector(model)
		kind.set(ref)
		det := NewDayDuskDetector(model)
		kind.set(det)
		det.Temporal = NewTemporalCache()

		// Cold frame, then 1-2 warm frames with random dirty rects
		// (possibly empty: an unchanged warm frame).
		for frame := 0; frame < 2+rng.Intn(2); frame++ {
			if frame > 0 && rng.Intn(4) > 0 {
				x0, y0 := rng.Intn(w), rng.Intn(h)
				mutateRect(base, img.Rect{X0: x0, Y0: y0, X1: x0 + 1 + rng.Intn(w), Y1: y0 + 1 + rng.Intn(h)}, uint64(i*31+frame))
			}
			want, err := ref.DetectCtx(ctx, base, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := det.DetectCtx(ctx, base, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("geometry %d (%dx%d %s) frame %d: %d detections, want %d", i, w, h, kind.name, frame, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("geometry %d (%dx%d %s) frame %d: detection %d = %+v, want %+v", i, w, h, kind.name, frame, j, got[j], want[j])
				}
			}
		}
	}
}

// TestTemporalCacheInvalidateForcesColdScan checks the explicit
// invalidation hook: after Invalidate every tile is re-fingerprinted
// as a refresh, none as a hit, and output is still byte-identical.
func TestTemporalCacheInvalidateForcesColdScan(t *testing.T) {
	model := trainSmall(t, synth.DayDataset(770, 64, 64, 40, 40))
	g := scanScene(771, 320, 200)
	ctx := context.Background()
	ref := NewDayDuskDetector(model)
	want, err := ref.DetectCtx(ctx, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	det := NewDayDuskDetector(model)
	det.Temporal = NewTemporalCache()
	for frame := 0; frame < 2; frame++ {
		if _, err := det.DetectCtx(ctx, g, 1); err != nil {
			t.Fatal(err)
		}
	}
	if det.Temporal.FrameStats().Hits == 0 {
		t.Fatal("warm frame should hit")
	}
	det.Temporal.Invalidate()
	got, err := det.DetectCtx(ctx, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDetections(t, "post-invalidate", got, want)
	fs := det.Temporal.FrameStats()
	if fs.Hits != 0 || fs.Refreshes == 0 {
		t.Fatalf("post-invalidate frame stats %+v, want all refreshes", fs)
	}
}
