package adaptive

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"advdet/internal/dbn"
	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/pipeline"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

var (
	stackDetsOnce sync.Once
	stackDetsVal  Detectors
	stackDetsErr  error
)

// stackDets trains a small detector set once for the shared-stack
// tests. The HOG thresholds are loosened so every frame yields
// detections to compare.
func stackDets(t *testing.T) Detectors {
	t.Helper()
	stackDetsOnce.Do(func() {
		train := func(ds *synth.Dataset, w, h int) *svm.Model {
			m, err := pipeline.TrainCropSVM(ds, hog.DefaultConfig(), w, h, svm.DefaultOptions())
			if err != nil && stackDetsErr == nil {
				stackDetsErr = err
			}
			return m
		}
		vw := pipeline.VehicleWindow
		day := pipeline.NewDayDuskDetector(train(synth.DayDataset(901, vw, vw, 40, 40), vw, vw))
		dusk := pipeline.NewDayDuskDetector(train(synth.DuskDataset(902, vw, vw, 40, 40, 0), vw, vw))
		ped := pipeline.NewPedestrianDetector(train(synth.PedestrianDataset(903,
			pipeline.PedWindowW, pipeline.PedWindowH, 40, 40, synth.Day), pipeline.PedWindowW, pipeline.PedWindowH))
		day.DetectThresh, dusk.DetectThresh, ped.DetectThresh = -0.25, -0.25, 0
		dbnCfg := dbn.DefaultConfig()
		dbnCfg.PretrainOpts.Epochs = 2
		dbnCfg.FineTuneIter = 10
		dark, err := pipeline.TrainDarkDetector(904, pipeline.DefaultDarkConfig(), dbnCfg, 40)
		if err != nil && stackDetsErr == nil {
			stackDetsErr = err
		}
		stackDetsVal = Detectors{Day: day, Dusk: dusk, Dark: dark, Pedestrian: ped}
	})
	if stackDetsErr != nil {
		t.Fatal(stackDetsErr)
	}
	return stackDetsVal
}

// coldClone returns a copy of a HOG detector with no temporal cache.
func coldClone(d *pipeline.HOGDetector) *pipeline.HOGDetector {
	c := *d
	c.Temporal = nil
	return &c
}

// TestSharedStackByteIdentical drives a tunnel transit — day, a
// well-lit tunnel (dusk), day, sunset, then dark with the reconfiguration
// and its dropped vehicle frame — and checks every frame's vehicles and
// pedestrians against the served detector's standalone scan of the
// frame on a cache-free clone: sharing one HOG stack between the
// vehicle and pedestrian scans, keeping it across frames and serving
// cached rows must not change a single detection. The ped-scale case
// gives the pedestrian detector a pyramid scale of its own, so it
// scans on a private stack.
func TestSharedStackByteIdentical(t *testing.T) {
	base := stackDets(t)
	ctx := context.Background()
	sc := synth.TunnelTransit(31, 256, 144, 2)
	type tcase struct {
		name     string
		temporal bool
		workers  int
		pedScale float64
	}
	var cases []tcase
	for _, temporal := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			name := "cold"
			if temporal {
				name = "temporal"
			}
			cases = append(cases, tcase{name: fmt.Sprintf("%s/workers=%d", name, workers), temporal: temporal, workers: workers})
		}
	}
	cases = append(cases, tcase{name: "ped-scale", temporal: true, workers: 1, pedScale: 1.2})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dets := base
			if tc.pedScale != 0 {
				p := *base.Pedestrian
				p.Scale = tc.pedScale
				dets.Pedestrian = &p
			}
			ref := map[synth.Condition]*pipeline.HOGDetector{
				synth.Day: coldClone(dets.Day), synth.Dusk: coldClone(dets.Dusk),
			}
			ped := coldClone(dets.Pedestrian)
			opt := DefaultOptions()
			opt.Parallelism = tc.workers
			opt.ScanTemporalCache = tc.temporal
			s, err := bootSystem(dets, opt)
			if err != nil {
				t.Fatal(err)
			}
			drops, vehicles, peds := 0, 0, 0
			for i := 0; i < sc.TotalFrames(); i++ {
				scene := sc.FrameAt(i)
				scene.Lux = sc.LuxAt(i)
				res, err := s.ProcessFrameCtx(ctx, scene)
				if err != nil {
					t.Fatal(err)
				}
				if res.VehicleStale {
					t.Fatalf("frame %d served a stale model; the drive has no faults", i)
				}
				g := img.RGBToGray(scene.Frame)
				var want []pipeline.Detection
				switch {
				case res.VehicleDropped:
					drops++
				case res.Cond == synth.Dark:
					want, err = dets.Dark.DetectCtx(ctx, scene.Frame, 1)
				default:
					want, err = ref[res.Cond].DetectCtx(ctx, g, 1)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Vehicles, want) {
					t.Fatalf("frame %d (%v): vehicles differ from the standalone scan:\n got %v\nwant %v", i, res.Cond, res.Vehicles, want)
				}
				wantPeds, err := ped.DetectCtx(ctx, g, 1)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Pedestrians, wantPeds) {
					t.Fatalf("frame %d (%v): pedestrians differ from the standalone scan:\n got %v\nwant %v", i, res.Cond, res.Pedestrians, wantPeds)
				}
				vehicles += len(res.Vehicles)
				peds += len(res.Pedestrians)
			}
			if drops != 1 {
				t.Fatalf("drive dropped %d vehicle frames, want 1", drops)
			}
			if vehicles == 0 || peds == 0 {
				t.Fatalf("drive found %d vehicles and %d pedestrians; the comparison needs both", vehicles, peds)
			}
		})
	}
}

// paste copies src into dst with its top-left corner at (x0, y0).
func paste(dst, src *img.RGB, x0, y0 int) {
	for y := 0; y < src.H; y++ {
		copy(dst.Pix[3*((y0+y)*dst.W+x0):], src.Pix[3*y*src.W:3*(y+1)*src.W])
	}
}

// TestRowCacheServesOnlyAfterPreviousFrame pins the row-cache rule: a
// HOG slot may serve cached window rows only if it scanned the frame
// immediately before on the shared stack, because the stack's dirty
// masks describe the change from that frame alone. A fixed camera's
// sequence is forced by lux through day, dusk, day, dark (one
// reconfiguration with its dropped vehicle frame) and day again, and
// a vehicle pasted into every frame from the dusk segment on changes
// content the day slot last saw before it. Every frame must equal a
// cold system's.
func TestRowCacheServesOnlyAfterPreviousFrame(t *testing.T) {
	dets := stackDets(t)
	ctx := context.Background()
	sh := synth.NewStaticHighway(41, 256, 144, synth.Day, 3)
	luxAt := func(i int) float64 {
		switch {
		case i >= 8 && i < 16:
			return 300 // dusk
		case i >= 24 && i < 32:
			return 5 // dark
		default:
			return 10000 // day
		}
	}
	// The patch is a vehicle above the horizon, clear of the moving
	// traffic, so its windows stay clean once it has appeared.
	patch := synth.VehicleCrop(synth.NewRNG(43), 64, 64, synth.Day)
	const frames = 40
	boot := func(temporal bool) *System {
		opt := DefaultOptions()
		opt.Parallelism = 1
		opt.ScanTemporalCache = temporal
		s, err := bootSystem(dets, opt)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	warm, cold := boot(true), boot(false)
	var conds []synth.Condition
	drops := 0
	for i := 0; i < frames; i++ {
		scene := sh.Frame(i)
		scene.Lux = luxAt(i)
		if i >= 10 {
			paste(scene.Frame, patch, 16, 0)
		}
		got, err := warm.ProcessFrameCtx(ctx, scene)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.ProcessFrameCtx(ctx, scene)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cond != want.Cond || got.VehicleDropped != want.VehicleDropped {
			t.Fatalf("frame %d: warm %v dropped=%v, cold %v dropped=%v", i, got.Cond, got.VehicleDropped, want.Cond, want.VehicleDropped)
		}
		if !reflect.DeepEqual(got.Vehicles, want.Vehicles) || !reflect.DeepEqual(got.Pedestrians, want.Pedestrians) {
			t.Fatalf("frame %d (%v): warm detections differ from the cold system's:\n vehicles %v\n want     %v\n pedestrians %v\n want        %v",
				i, got.Cond, got.Vehicles, want.Vehicles, got.Pedestrians, want.Pedestrians)
		}
		if len(conds) == 0 || conds[len(conds)-1] != got.Cond {
			conds = append(conds, got.Cond)
		}
		if got.VehicleDropped {
			drops++
		}
	}
	wantConds := []synth.Condition{synth.Day, synth.Dusk, synth.Day, synth.Dark, synth.Day}
	if !reflect.DeepEqual(conds, wantConds) {
		t.Fatalf("drive ran %v, want %v", conds, wantConds)
	}
	if drops == 0 {
		t.Fatal("drive dropped no vehicle frame")
	}
}
