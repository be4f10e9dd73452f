package pipeline

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"advdet/internal/dbn"
	"advdet/internal/eval"
	"advdet/internal/img"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

// quickDark trains a small dark detector for tests; the Downsample=1
// configuration matches the crop-level evaluation (full frames use 3).
// Detectors are cached per downsample factor so the suite trains at
// most twice.
var darkCache = map[int]*DarkDetector{}

func quickDark(t *testing.T, downsample int) *DarkDetector {
	t.Helper()
	if det, ok := darkCache[downsample]; ok {
		// Return a copy so tests mutating Cfg do not leak changes.
		cp := *det
		return &cp
	}
	cfg := DefaultDarkConfig()
	cfg.Downsample = downsample
	dbnCfg := dbn.DefaultConfig()
	dbnCfg.PretrainOpts.Epochs = 4
	dbnCfg.FineTuneIter = 30
	det, err := TrainDarkDetector(77, cfg, dbnCfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	darkCache[downsample] = det
	cp := *det
	return &cp
}

func TestDefaultDarkConfig(t *testing.T) {
	cfg := DefaultDarkConfig()
	if cfg.TargetWidth != 640 || cfg.Stride != 2 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if !cfg.UseChroma || !cfg.UseClosing || !cfg.UsePairSVM {
		t.Fatal("paper configuration must enable chroma, closing and pair SVM")
	}
}

func TestFactorFor(t *testing.T) {
	cfg := DefaultDarkConfig()
	// The paper's operating point: HDTV decimates by 3 to 640x360.
	for _, c := range []struct{ w, want int }{
		{1920, 3}, {640, 1}, {960, 2}, {96, 1}, {3840, 6},
	} {
		if got := cfg.FactorFor(c.w); got != c.want {
			t.Errorf("FactorFor(%d) = %d, want %d", c.w, got, c.want)
		}
	}
	cfg.Downsample = 5 // explicit override wins
	if cfg.FactorFor(1920) != 5 {
		t.Fatal("explicit Downsample ignored")
	}
}

func TestPreprocessIsolatesTaillights(t *testing.T) {
	det := quickDark(t, 1)
	m := synth.VehicleCrop(synth.NewRNG(101), 96, 96, synth.Dark)
	b := det.Preprocess(m)
	if b.Count() == 0 {
		t.Fatal("preprocess removed the taillights")
	}
	// Foreground must be a small fraction of the frame: lights only.
	if frac := float64(b.Count()) / float64(b.W*b.H); frac > 0.2 {
		t.Fatalf("foreground fraction %v too high", frac)
	}
}

func TestPreprocessRejectsWhiteLights(t *testing.T) {
	det := quickDark(t, 1)
	// A frame with only white lights (headlights, street lights).
	m := img.NewRGB(64, 64)
	m.Fill(8, 8, 12)
	img.FillEllipse(m, img.Rect{X0: 10, Y0: 10, X1: 18, Y1: 16}, 255, 250, 240)
	img.FillEllipse(m, img.Rect{X0: 40, Y0: 10, X1: 48, Y1: 16}, 255, 250, 240)
	b := det.Preprocess(m)
	if b.Count() != 0 {
		t.Fatalf("white lights passed the chroma gate: %d pixels", b.Count())
	}
}

func TestPreprocessDownsampleSize(t *testing.T) {
	det := quickDark(t, 0) // auto factor
	m := img.NewRGB(1920, 1080)
	b := det.Preprocess(m)
	if b.W != 640 || b.H != 360 {
		t.Fatalf("downsampled size %dx%d, want 640x360", b.W, b.H)
	}
}

func TestScanLightsFindsLampPair(t *testing.T) {
	det := quickDark(t, 1)
	m := synth.VehicleCrop(synth.NewRNG(103), 96, 96, synth.Dark)
	lights := det.ScanLights(det.Preprocess(m))
	if len(lights) < 2 {
		t.Fatalf("found %d lights, want >= 2", len(lights))
	}
}

func TestScanLightsEmptyFrame(t *testing.T) {
	det := quickDark(t, 1)
	b := img.NewBinary(64, 64)
	if got := det.ScanLights(b); len(got) != 0 {
		t.Fatalf("lights on empty frame: %d", len(got))
	}
}

func TestDetectVehicleInDarkCrop(t *testing.T) {
	det := quickDark(t, 1)
	found := 0
	for s := uint64(0); s < 10; s++ {
		m := synth.VehicleCrop(synth.NewRNG(200+s), 96, 96, synth.Dark)
		if det.ClassifyCrop(m) {
			found++
		}
	}
	if found < 8 {
		t.Fatalf("dark pipeline found %d/10 vehicles", found)
	}
}

func TestDetectRejectsDarkNegatives(t *testing.T) {
	det := quickDark(t, 1)
	fp := 0
	for s := uint64(0); s < 10; s++ {
		m := synth.NegativeCrop(synth.NewRNG(300+s), 96, 96, synth.Dark)
		if det.ClassifyCrop(m) {
			fp++
		}
	}
	if fp > 2 {
		t.Fatalf("dark pipeline false-positived on %d/10 negatives", fp)
	}
}

func TestDarkAccuracyOnDataset(t *testing.T) {
	// The §III-B claim: ~95% accuracy on the very dark subset. At test
	// scale we require >= 85%.
	det := quickDark(t, 1)
	ds := synth.NewDarkDataset(400, 96, 96, 30, 30)
	var c eval.Confusion
	for _, p := range ds.Pos {
		c.Record(true, det.ClassifyCrop(p))
	}
	for _, n := range ds.Neg {
		c.Record(false, det.ClassifyCrop(n))
	}
	if c.Accuracy() < 0.85 {
		t.Fatalf("dark accuracy %v: %v", c.Accuracy(), c)
	}
}

func TestScanStatsGating(t *testing.T) {
	det := quickDark(t, 1)
	m := synth.VehicleCrop(synth.NewRNG(881), 96, 96, synth.Dark)
	bin := det.Preprocess(m)
	lights, stats := det.ScanLightsStats(bin)
	if stats.Windows == 0 {
		t.Fatal("no windows visited")
	}
	if stats.Evaluated > stats.Windows {
		t.Fatal("evaluated more windows than visited")
	}
	if stats.Hits > stats.Evaluated {
		t.Fatal("more hits than evaluations")
	}
	// On a dark frame almost everything is background: the gate must
	// remove the large majority of DBN evaluations.
	if stats.GatedFraction() < 0.5 {
		t.Fatalf("gated fraction %v too low", stats.GatedFraction())
	}
	if len(lights) == 0 {
		t.Fatal("no lights found despite hits")
	}
	// Empty map: everything gated, zero stats denominator safe.
	empty := img.NewBinary(50, 50)
	_, s2 := det.ScanLightsStats(empty)
	if s2.Evaluated != 0 || s2.GatedFraction() != 1 {
		t.Fatalf("empty-map stats %+v", s2)
	}
	if (ScanStats{}).GatedFraction() != 0 {
		t.Fatal("zero-window GatedFraction should be 0")
	}
}

func TestPairFeaturesSymmetricInvariant(t *testing.T) {
	a := Light{Box: img.Rect{X0: 0, Y0: 10, X1: 5, Y1: 14}, Class: 1}
	b := Light{Box: img.Rect{X0: 20, Y0: 10, X1: 25, Y1: 14}, Class: 1}
	fa := PairFeatures(a, b)
	fb := PairFeatures(b, a)
	if len(fa) != 4 {
		t.Fatalf("feature length %d", len(fa))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("pair features not symmetric at %d: %v vs %v", i, fa, fb)
		}
	}
	if fa[0] != 0 {
		t.Fatalf("aligned pair dy = %v", fa[0])
	}
}

func TestTrainPairSVMSeparates(t *testing.T) {
	m, err := TrainPairSVM(5, 300, svm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// A canonical good pair must score positive, a bad one negative.
	good := PairFeatures(
		Light{Box: img.Rect{X0: 0, Y0: 10, X1: 6, Y1: 15}, Class: 2},
		Light{Box: img.Rect{X0: 25, Y0: 10, X1: 31, Y1: 15}, Class: 2},
	)
	if m.Margin(good) <= 0 {
		t.Fatalf("good pair margin %v", m.Margin(good))
	}
	badVert := PairFeatures(
		Light{Box: img.Rect{X0: 0, Y0: 10, X1: 6, Y1: 15}, Class: 2},
		Light{Box: img.Rect{X0: 25, Y0: 60, X1: 31, Y1: 65}, Class: 2},
	)
	if m.Margin(badVert) > 0 {
		t.Fatalf("vertically misaligned pair accepted: %v", m.Margin(badVert))
	}
	badSize := PairFeatures(
		Light{Box: img.Rect{X0: 0, Y0: 10, X1: 4, Y1: 13}, Class: 1},
		Light{Box: img.Rect{X0: 30, Y0: 10, X1: 58, Y1: 34}, Class: 3},
	)
	if m.Margin(badSize) > 0 {
		t.Fatalf("size-mismatched pair accepted: %v", m.Margin(badSize))
	}
}

func TestGeometricGateAblation(t *testing.T) {
	det := quickDark(t, 1)
	det.Cfg.UsePairSVM = false
	// The geometric gate must still find most dark vehicles.
	found := 0
	for s := uint64(0); s < 10; s++ {
		m := synth.VehicleCrop(synth.NewRNG(500+s), 96, 96, synth.Dark)
		if det.ClassifyCrop(m) {
			found++
		}
	}
	if found < 6 {
		t.Fatalf("geometric gate found only %d/10", found)
	}
}

func TestMergeLights(t *testing.T) {
	hits := []Light{
		{Box: img.Rect{X0: 0, Y0: 0, X1: 9, Y1: 9}, Class: 1, Prob: 0.6},
		{Box: img.Rect{X0: 2, Y0: 0, X1: 11, Y1: 9}, Class: 2, Prob: 0.9},
		{Box: img.Rect{X0: 40, Y0: 40, X1: 49, Y1: 49}, Class: 1, Prob: 0.7},
	}
	merged := mergeLights(hits, make([]bool, len(hits)))
	if len(merged) != 2 {
		t.Fatalf("merged to %d lights, want 2", len(merged))
	}
	// The overlapping pair keeps the higher-probability class and the
	// union box.
	var big Light
	for _, l := range merged {
		if l.Box.X0 == 0 {
			big = l
		}
	}
	if big.Class != 2 || big.Prob != 0.9 {
		t.Fatalf("merged light kept wrong class: %+v", big)
	}
	if big.Box.X1 != 11 {
		t.Fatalf("merged box = %v", big.Box)
	}
}

func TestDarkDetectorOnSceneFrame(t *testing.T) {
	// 640x360 is the dark pipeline's native post-downsample operating
	// point (1920x1080 / 3); feeding such frames with Downsample=1
	// exercises the identical scan at test-affordable render cost.
	det := quickDark(t, 1)
	cfg := synth.SceneConfig{W: 640, H: 360, Cond: synth.Dark, NumVehicles: 1, RoadLights: 2, OncomingHeadlights: 1}
	detected := 0
	trials := 6
	for s := uint64(0); s < uint64(trials); s++ {
		sc := synth.RenderScene(synth.NewRNG(600+s), cfg)
		if len(sc.Vehicles) == 0 {
			continue
		}
		dets := det.Detect(sc.Frame)
		for _, d := range dets {
			for _, gt := range sc.Vehicles {
				if d.Box.Intersect(gt).Area() > 0 {
					detected++
					goto next
				}
			}
		}
	next:
	}
	if detected < trials/2 {
		t.Fatalf("scene-level dark detection hit %d/%d", detected, trials)
	}
}

// TestDarkSteadyStateAllocs is the dark path's allocation gate: after
// warm-up, a 640x360 night frame through DetectCtx allocates only a
// frame-constant amount (the pooled scratch handles every map, table,
// arena and activation buffer) within the scan path's 40-object
// budget, at every worker count. The budget sits far below one
// allocation per window row (~176 rows) or per evaluated window.
func TestDarkSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	det := quickDark(t, 0)
	frame := synth.NightHighway(15, 640, 360, 36).FrameAt(7).Frame
	ctx := context.Background()
	for _, wc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"two", 2}, {"gomaxprocs", runtime.GOMAXPROCS(0)}} {
		workers := wc.workers
		t.Run(wc.name, func(t *testing.T) {
			if _, err := det.DetectCtx(ctx, frame, workers); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := det.DetectCtx(ctx, frame, workers); err != nil {
					t.Fatal(err)
				}
			})
			const maxAllocs = 40
			if allocs > maxAllocs {
				t.Fatalf("steady-state dark frame allocates %.0f objects, want <= %d", allocs, maxAllocs)
			}
			t.Logf("%.0f allocations per frame", allocs)
		})
	}
}

// TestDarkDetectConcurrentStreams runs one DarkDetector from several
// goroutines at once, as an Engine's streams do, on frames of
// different sizes: each call must borrow its own pooled scratch, so
// every result matches the serial one.
func TestDarkDetectConcurrentStreams(t *testing.T) {
	det := quickDark(t, 0)
	night := synth.NightHighway(21, 640, 360, 36)
	frames := []*img.RGB{night.FrameAt(2).Frame, night.FrameAt(40).Frame}
	for s := uint64(0); s < 4; s++ {
		frames = append(frames, synth.VehicleCrop(synth.NewRNG(1000+s), 96, 96, synth.Dark))
	}
	ctx := context.Background()
	want := make([][]Detection, len(frames))
	for i, f := range frames {
		want[i] = det.Detect(f)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range frames {
					i := (k + g) % len(frames)
					got, err := det.DetectCtx(ctx, frames[i], 2)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("goroutine %d frame %d: concurrent detections differ from serial", g, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
