package pipeline

import (
	"context"
	"math"
	"runtime"
	"testing"

	"advdet/internal/haar"
	"advdet/internal/img"
	"advdet/internal/synth"
)

// scanVariant selects which scoring strategy a test scan runs with;
// the zero value is the production default (block-response engine
// with the partial-margin early exit).
type scanVariant struct {
	noBlocks   bool // force the per-window descriptor path
	fullMargin bool // score with the fullMarginDetect reference instead
	prefilter  *haar.Cascade
}

// scanFn runs one full detect under a scoring variant, so the table
// below can exercise every detector kind through one code path.
type scanFn func(t *testing.T, g *img.Gray, workers int, v scanVariant) []Detection

// blockEquivalenceCases covers all four HOG scan kinds of the system:
// day and dusk vehicles, pedestrians, animals.
func blockEquivalenceCases(t *testing.T) []struct {
	name  string
	frame *img.Gray
	scan  scanFn
} {
	t.Helper()
	dayModel := trainSmall(t, synth.DayDataset(700, 64, 64, 50, 50))
	duskModel := trainSmall(t, synth.DuskDataset(701, 64, 64, 50, 50, 0))
	ped := trainPed(t, 702)
	animal := trainAnimal(t, 705)
	dayFrame := scanScene(710, 320, 200)
	duskFrame := img.RGBToGray(synth.RenderScene(synth.NewRNG(711),
		synth.SceneConfig{W: 320, H: 200, Cond: synth.Dusk, NumVehicles: 2}).Frame)
	return []struct {
		name  string
		frame *img.Gray
		scan  scanFn
	}{
		{"day", dayFrame, func(t *testing.T, g *img.Gray, workers int, v scanVariant) []Detection {
			det := NewDayDuskDetector(dayModel)
			applyVariant(&det.NoBlockResponse, &det.Prefilter, v)
			return detectVariant(t, det, g, workers, v)
		}},
		{"dusk", duskFrame, func(t *testing.T, g *img.Gray, workers int, v scanVariant) []Detection {
			det := NewDayDuskDetector(duskModel)
			det.DetectThresh = -0.25 // loosen so the scene yields detections to compare
			applyVariant(&det.NoBlockResponse, &det.Prefilter, v)
			return detectVariant(t, det, g, workers, v)
		}},
		{"pedestrian", dayFrame, func(t *testing.T, g *img.Gray, workers int, v scanVariant) []Detection {
			d := *ped
			d.DetectThresh = -0.25 // loosen so the scene yields detections to compare
			applyVariant(&d.NoBlockResponse, &d.Prefilter, v)
			return detectVariant(t, &d, g, workers, v)
		}},
		{"animal", dayFrame, func(t *testing.T, g *img.Gray, workers int, v scanVariant) []Detection {
			d := *animal
			applyVariant(&d.NoBlockResponse, &d.Prefilter, v)
			return detectVariant(t, &d, g, workers, v)
		}},
	}
}

// TestBlockResponseMatchesDescriptorPath is the engine's acceptance
// gate: for every scan kind and worker count, the block-response path
// must produce the same detections as the descriptor path — identical
// boxes, kinds and count, with scores within 1e-9 relative (the two
// paths sum the same products in different order).
func TestBlockResponseMatchesDescriptorPath(t *testing.T) {
	for _, tc := range blockEquivalenceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.scan(t, tc.frame, 1, scanVariant{noBlocks: true}) // descriptor path, serial
			if len(ref) == 0 {
				t.Fatalf("%s: reference scan found nothing; scene too easy to miss a regression", tc.name)
			}
			for _, workers := range []int{1, 2, runtime.NumCPU()} {
				got := tc.scan(t, tc.frame, workers, scanVariant{})
				if len(got) != len(ref) {
					t.Fatalf("workers=%d: %d detections, want %d", workers, len(got), len(ref))
				}
				for i := range ref {
					if got[i].Box != ref[i].Box || got[i].Kind != ref[i].Kind {
						t.Fatalf("workers=%d: detection %d = %+v, want %+v", workers, i, got[i], ref[i])
					}
					d := math.Abs(got[i].Score - ref[i].Score)
					scale := math.Max(math.Abs(ref[i].Score), 1)
					if d/scale > 1e-9 {
						t.Fatalf("workers=%d: detection %d score %v, want %v (rel %g)",
							workers, i, got[i].Score, ref[i].Score, d/scale)
					}
				}
			}
		})
	}
}

// TestScanSteadyStateAllocs pins the scratch pool's payoff: after
// warm-up, a full scan allocates only a small frame-constant amount
// (closures, pyramid geometry, NMS, the detection output) — no
// per-window or per-level buffers. The bound has headroom for
// allocator noise but sits below one allocation per window row
// (~60 rows on this frame), so a reintroduced per-row or per-window
// make() trips it.
func TestScanSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	base := NewDayDuskDetector(trainSmall(t, synth.DayDataset(720, 64, 64, 40, 40)))
	g := scanScene(721, 320, 200)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		set  func(d *DayDuskDetector)
	}{
		{"early", func(d *DayDuskDetector) {}},
		{"prefilter", func(d *DayDuskDetector) { d.Prefilter = constCascade(64, 64, -1) }},
		{"temporal", func(d *DayDuskDetector) { d.Temporal = NewTemporalCache() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			det := *base
			tc.set(&det)
			// Warm the pool: first frame grows every buffer to steady
			// state.
			if _, err := det.DetectCtx(ctx, g, 1); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := det.DetectCtx(ctx, g, 1); err != nil {
					t.Fatal(err)
				}
			})
			const maxAllocs = 40
			if allocs > maxAllocs {
				t.Fatalf("steady-state scan allocates %.0f objects/frame, want <= %d", allocs, maxAllocs)
			}
		})
	}
}

// TestScanTimingsReported checks DetectTimedCtx fills every stage and
// flags the block path. The prefilter stage is timed only when a
// cascade is attached.
func TestScanTimingsReported(t *testing.T) {
	det := NewDayDuskDetector(trainSmall(t, synth.DayDataset(730, 64, 64, 40, 40)))
	g := scanScene(731, 256, 160)
	var tm ScanTimings
	if _, err := det.DetectTimedCtx(context.Background(), g, 1, &tm); err != nil {
		t.Fatal(err)
	}
	if !tm.BlockPath {
		t.Fatal("aligned-stride scan did not take the block path")
	}
	if tm.Prefilter != 0 {
		t.Fatalf("scan without a prefilter reported %v of prefilter time", tm.Prefilter)
	}
	for _, st := range []struct {
		name string
		d    float64
	}{
		{"resize", tm.Resize.Seconds()},
		{"feature", tm.Feature.Seconds()},
		{"blocks", tm.Blocks.Seconds()},
		{"response", tm.Response.Seconds()},
		{"windows", tm.Windows.Seconds()},
	} {
		if st.d <= 0 {
			t.Fatalf("stage %s reported no wall time", st.name)
		}
	}
	pdet := *det
	pdet.Prefilter = constCascade(VehicleWindow, VehicleWindow, -1)
	if _, err := pdet.DetectTimedCtx(context.Background(), g, 1, &tm); err != nil {
		t.Fatal(err)
	}
	if tm.Prefilter <= 0 {
		t.Fatal("stage prefilter reported no wall time with a cascade attached")
	}
	det.NoBlockResponse = true
	if _, err := det.DetectTimedCtx(context.Background(), g, 1, &tm); err != nil {
		t.Fatal(err)
	}
	if tm.BlockPath {
		t.Fatal("NoBlockResponse scan still flagged the block path")
	}
	if tm.Blocks != 0 || tm.Response != 0 {
		t.Fatal("descriptor path attributed time to block stages")
	}
}
