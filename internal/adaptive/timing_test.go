package adaptive

// Regression tests for the frame-slot timing accounting: the absolute
// slot-deadline overrun check, the exact integer slot clock, and the
// model-select/reconfiguration interlock. Each test encodes a bug that
// shipped in an earlier revision and fails against it.

import (
	"testing"

	"advdet/internal/img"
	"advdet/internal/metrics"
	"advdet/internal/pipeline"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

// hdScene fabricates a 1080p scene (the timing path only reads the
// frame dimensions, so the pixels stay unrendered).
func hdScene(cond synth.Condition, lux float64) *synth.Scene {
	sc := synth.RenderScene(synth.NewRNG(4), synth.SceneConfig{W: 64, H: 36, Cond: cond})
	sc.Frame = img.NewRGB(1920, 1080)
	sc.Lux = lux
	return sc
}

// TestSlotOverrunCountsLateCatchUpFrame pins the overrun counter to
// the absolute slot deadline. The post-reconfiguration catch-up frame
// launches its vehicle stream at mid-slot, so at 1080p its ~19.9 ms of
// processing ends ~10 ms past the slot end — a real deadline miss. A
// relative check (finish-start against one period) sees only the
// stream's own duration, which fits the period, and reports zero: the
// undercount this test would flag.
func TestSlotOverrunCountsLateCatchUpFrame(t *testing.T) {
	s := timingSystem(t, synth.Dusk)
	for i := 0; i < 5; i++ {
		s.ProcessFrame(hdScene(synth.Dusk, 300))
	}
	for i := 0; i < 5; i++ {
		s.ProcessFrame(hdScene(synth.Dark, 5))
	}
	st := s.Stats()
	if st.VehicleDropped != 1 {
		t.Fatalf("dropped %d vehicle frames, want 1", st.VehicleDropped)
	}
	if st.SlotOverruns != 1 {
		t.Fatalf("slot overruns = %d, want exactly 1 (the mid-slot catch-up frame past its deadline)", st.SlotOverruns)
	}
}

// TestSlotOverrunExactDeadlineBoundary sits a frame's hardware finish
// exactly on the slot deadline: 2,497,952 pipeline cycles + the 2048-
// cycle fill is precisely 20 ms at 125 MHz. Finishing ON the deadline
// is a hit; one more pixel row of work (+8 ns) is a miss on both
// streams.
func TestSlotOverrunExactDeadlineBoundary(t *testing.T) {
	// uint64(float64(1*2081627) * 1.2) = 2,497,952 cycles; at 8000 ps
	// per ClkPL cycle plus the 2048-cycle fill the stream spans
	// 20,000,000,000 ps — the whole 50 fps slot, to the picosecond.
	const exactH = 2081627
	run := func(h int) (*System, Stats) {
		opt := DefaultOptions()
		opt.RunDetectors = false
		opt.EnableMetrics = true
		s, err := bootSystem(Detectors{}, opt)
		if err != nil {
			t.Fatal(err)
		}
		sc := sceneFor(synth.Day, 10000)
		sc.Frame = img.NewRGB(1, h)
		s.ProcessFrame(sc)
		return s, s.Stats()
	}

	s, st := run(exactH)
	if st.SlotOverruns != 0 {
		t.Fatalf("finish exactly on the deadline counted as %d overruns, want 0", st.SlotOverruns)
	}
	f := s.Snapshot().Frames
	if f.DeadlineHits != 1 || f.DeadlineMisses != 0 {
		t.Fatalf("boundary frame accounting %+v, want 1 hit 0 misses", f)
	}
	if f.HeadroomMinPS != 0 {
		t.Fatalf("boundary frame headroom = %d ps, want 0", f.HeadroomMinPS)
	}

	s, st = run(exactH + 1)
	if st.SlotOverruns != 2 {
		t.Fatalf("one cycle past the deadline counted as %d overruns, want 2 (both streams)", st.SlotOverruns)
	}
	if f := s.Snapshot().Frames; f.DeadlineMisses != 1 {
		t.Fatalf("past-deadline frame accounting %+v, want 1 miss", f)
	}
}

// TestSlotClockExactOverLongRuns pins the slot clock to integer
// arithmetic. At 30 fps the period is 33,333,333,333.3 ps; truncating
// it once and multiplying (the float-division bug) loses 10 ps per
// frame — a third of a microsecond of drift over a 10,000-frame drive,
// unbounded beyond. The exact clock re-synchronises every second.
func TestSlotClockExactOverLongRuns(t *testing.T) {
	opt := DefaultOptions()
	opt.FPS = 30
	opt.RunDetectors = false
	s, err := bootSystem(Detectors{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 12_000 // 400 s of 30 fps video
	for i := 0; i < frames; i++ {
		d := s.slotStartPS(i+1) - s.slotStartPS(i)
		if d != 33_333_333_333 && d != 33_333_333_334 {
			t.Fatalf("slot %d period = %d ps, want 1/30 s split across integer slots", i, d)
		}
	}
	for k := 1; k <= frames/30; k++ {
		if got := s.slotStartPS(30*k) - s.epoch; got != uint64(k)*psPerSecond {
			t.Fatalf("slot %d starts %d ps after boot, want exactly %d s (drift %d ps)",
				30*k, got, k, int64(got)-int64(k)*psPerSecond)
		}
	}
}

// TestModelSelectWaitsForReconfigCompletion pins the interlock between
// the BRAM model select and partial reconfiguration: an AXI-Lite write
// into the partition being rewritten is undefined on hardware, so a
// dark->dusk transition must hold the dusk select until the day-dusk
// bitstream has finished loading.
func TestModelSelectWaitsForReconfigCompletion(t *testing.T) {
	opt := DefaultOptions()
	opt.Initial = synth.Dark
	opt.RunDetectors = false
	s, err := bootSystem(Detectors{
		Day:  pipeline.NewDayDuskDetector(&svm.Model{W: make([]float64, 4)}),
		Dusk: pipeline.NewDayDuskDetector(&svm.Model{W: make([]float64, 4)}),
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Dusk light from frame 0; the monitor debounce switches the
	// condition on frame 2, which starts the dark->day-dusk
	// reconfiguration (~20.5 ms, spilling into frame 3's slot).
	step := func() Stats {
		if _, err := s.ProcessFrame(sceneFor(synth.Dusk, 300)); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}
	step()
	step()
	st := step() // frame 2: reconfiguration starts here
	if len(st.Reconfigs) != 1 {
		t.Fatalf("reconfigs after frame 2 = %d, want 1", len(st.Reconfigs))
	}
	if st.ModelSwitches != 0 {
		t.Fatal("model selected on the same frame the partition started rewriting")
	}
	if st := step(); st.ModelSwitches != 0 {
		t.Fatal("model selected while the reconfiguration was still in flight")
	}
	st = step() // frame 4: first clean frame after completion
	if st.ModelSwitches != 1 {
		t.Fatalf("model switches after reconfiguration completed = %d, want 1 (deferred select)", st.ModelSwitches)
	}
	// The select must postdate the reconfiguration completion in the
	// platform trace.
	done := st.Reconfigs[0].DonePS
	if done == 0 {
		t.Fatal("reconfiguration never completed")
	}
	found := false
	for _, e := range s.Z.Trace.Events() {
		if e.Source == "adaptive" && e.Name == "model-select" {
			found = true
			if e.PS < done {
				t.Fatalf("model-select at %d ps precedes reconfig-done at %d ps", e.PS, done)
			}
		}
	}
	if !found {
		t.Fatal("model-select never traced")
	}
}

// TestSnapshotAcrossConditions drives day -> dusk -> dark with metrics
// enabled and checks every stage counter the drive must touch,
// including the reconfiguration frame.
func TestSnapshotAcrossConditions(t *testing.T) {
	opt := DefaultOptions()
	opt.RunDetectors = false
	opt.EnableMetrics = true
	s, err := bootSystem(Detectors{
		Day:  pipeline.NewDayDuskDetector(&svm.Model{W: make([]float64, 4)}),
		Dusk: pipeline.NewDayDuskDetector(&svm.Model{W: make([]float64, 4)}),
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(cond synth.Condition, lux float64, n int) {
		for i := 0; i < n; i++ {
			if _, err := s.ProcessFrame(sceneFor(cond, lux)); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(synth.Day, 10000, 4)
	feed(synth.Dusk, 300, 4) // model select, no reconfiguration
	feed(synth.Dark, 5, 8)   // reconfiguration + one dropped frame

	snap := s.Snapshot()
	if !snap.Enabled {
		t.Fatal("snapshot not enabled with EnableMetrics")
	}
	const frames = 16
	want := map[string]uint64{
		"sense":        frames,
		"model-select": 1,
		"reconfig":     1,
		"dma-stream":   2*frames - 1, // one vehicle stream lost to the drop
		"vehicle-scan": 0,            // timing mode: no software scans
	}
	for name, n := range want {
		st, ok := snap.StageByName(name)
		if !ok {
			t.Fatalf("stage %q missing from snapshot", name)
		}
		if st.Count != n {
			t.Fatalf("stage %q count = %d, want %d", name, st.Count, n)
		}
	}
	rc, _ := snap.StageByName("reconfig")
	if ms := float64(rc.SimPSTotal) / 1e9; ms < 19 || ms > 22 {
		t.Fatalf("reconfig stage recorded %.2f ms, want ~20.5", ms)
	}
	f := snap.Frames
	if f.Frames != frames || f.DeadlineHits+f.DeadlineMisses != frames {
		t.Fatalf("frame accounting %+v, want %d frames fully attributed", f, frames)
	}
	if f.DeadlineMisses != 0 {
		t.Fatalf("64x36 frames missed %d deadlines, want 0", f.DeadlineMisses)
	}
	if g := s.Metrics().GaugeValue(metrics.GaugeLoadedConfig); g != uint64(CfgDark) {
		t.Fatalf("loaded_config gauge = %d, want %d", g, CfgDark)
	}
	if g := s.Metrics().GaugeValue(metrics.GaugeFrameIndex); g != frames-1 {
		t.Fatalf("frame_index gauge = %d, want %d", g, frames-1)
	}
}

// TestMetricsDisabledByDefault: without EnableMetrics the registry is
// absent and the snapshot API still answers.
func TestMetricsDisabledByDefault(t *testing.T) {
	s := timingSystem(t, synth.Day)
	if s.Metrics() != nil {
		t.Fatal("metrics registry allocated without EnableMetrics")
	}
	s.ProcessFrame(sceneFor(synth.Day, 10000))
	if snap := s.Snapshot(); snap.Enabled || snap.Frames.Frames != 0 {
		t.Fatalf("disabled snapshot %+v, want zero value", snap)
	}
}
