package pipeline

import (
	"context"
	"math"
	"runtime"
	"testing"

	"advdet/internal/img"
	"advdet/internal/synth"
)

// scanVariant selects which scoring strategy a test scan runs with;
// the zero value is the production default (block-response engine
// with the partial-margin early exit).
type scanVariant struct {
	noBlocks   bool // force the per-window descriptor path
	fullMargin bool // score with the fullMarginDetect reference instead
}

// blockEquivalenceCase is one HOG scan kind of the system and the
// frame it is checked on.
type blockEquivalenceCase struct {
	name  string
	frame *img.Gray
	det   *HOGDetector
}

// blockEquivalenceCases covers all four HOG scan kinds of the system:
// day and dusk vehicles, pedestrians, animals.
func blockEquivalenceCases(t *testing.T) []blockEquivalenceCase {
	t.Helper()
	day := NewDayDuskDetector(trainSmall(t, synth.DayDataset(700, 64, 64, 50, 50)))
	dusk := NewDayDuskDetector(trainSmall(t, synth.DuskDataset(701, 64, 64, 50, 50, 0)))
	dusk.DetectThresh = -0.25 // loosen so the scene yields detections to compare
	ped := trainPed(t, 702)
	ped.DetectThresh = -0.25 // loosen so the scene yields detections to compare
	animal := trainAnimal(t, 705)
	dayFrame := scanScene(710, 320, 200)
	duskFrame := img.RGBToGray(synth.RenderScene(synth.NewRNG(711),
		synth.SceneConfig{W: 320, H: 200, Cond: synth.Dusk, NumVehicles: 2}).Frame)
	return []blockEquivalenceCase{
		{"day", dayFrame, day},
		{"dusk", duskFrame, dusk},
		{"pedestrian", dayFrame, ped},
		{"animal", dayFrame, animal},
	}
}

// scan runs the case's detector over its frame under a scoring
// variant.
func (tc blockEquivalenceCase) scan(t *testing.T, workers int, v scanVariant) []Detection {
	t.Helper()
	d := *tc.det
	d.NoBlockResponse = v.noBlocks
	if v.fullMargin {
		return fullMarginDetect(t, &d, tc.frame)
	}
	dets, err := d.DetectCtx(context.Background(), tc.frame, workers)
	if err != nil {
		t.Fatal(err)
	}
	return dets
}

// TestBlockResponseMatchesDescriptorPath is the engine's acceptance
// gate: for every scan kind and worker count, the block-response path
// must produce the same detections as the descriptor path — identical
// boxes, kinds and count, with scores within 1e-9 relative (the two
// paths sum the same products in different order).
func TestBlockResponseMatchesDescriptorPath(t *testing.T) {
	for _, tc := range blockEquivalenceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.scan(t, 1, scanVariant{noBlocks: true}) // descriptor path, serial
			if len(ref) == 0 {
				t.Fatalf("%s: reference scan found nothing; scene too easy to miss a regression", tc.name)
			}
			for _, workers := range []int{1, 2, runtime.NumCPU()} {
				got := tc.scan(t, workers, scanVariant{})
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
		set  func(d *HOGDetector)
	}{
		{"early", func(d *HOGDetector) {}},
		{"temporal", func(d *HOGDetector) { d.Temporal = NewTemporalCache() }},
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
// flags the block path.
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
