package advdet

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"advdet/internal/synth"
)

// sharedDets trains the Fast detector bundle once for all API tests.
var sharedDets *Detectors

func getDets(t *testing.T) Detectors {
	t.Helper()
	if sharedDets == nil {
		d, err := TrainDetectors(42, Fast)
		if err != nil {
			t.Fatal(err)
		}
		sharedDets = &d
	}
	return *sharedDets
}

func TestTrainDetectorsProducesAllModels(t *testing.T) {
	d := getDets(t)
	if d.Day == nil || d.Dusk == nil || d.Dark == nil || d.Pedestrian == nil {
		t.Fatal("missing detector in bundle")
	}
}

func TestEndToEndDayFrame(t *testing.T) {
	d := getDets(t)
	sys, err := NewSystem(d)
	if err != nil {
		t.Fatal(err)
	}
	sc := RenderScene(7, 320, 180, Day)
	res, err := sys.ProcessFrame(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cond != Day {
		t.Fatalf("condition %v", res.Cond)
	}
	if res.VehicleDropped {
		t.Fatal("steady-state day frame dropped")
	}
}

func TestEndToEndDarkTransition(t *testing.T) {
	d := getDets(t)
	sys, err := NewSystem(d, WithInitial(Dusk), WithTimingOnly())
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	for i := 0; i < 12; i++ {
		sc := RenderScene(uint64(100+i), 64, 36, Dark)
		res, err := sys.ProcessFrame(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.VehicleDropped {
			drops++
		}
	}
	if drops != 1 {
		t.Fatalf("transition dropped %d frames, want 1", drops)
	}
}

func TestReconfigThroughputsAPI(t *testing.T) {
	results, err := ReconfigThroughputs(8_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("controllers measured: %d", len(results))
	}
	byName := map[string]ReconfigResult{}
	for _, r := range results {
		if r.Elapsed <= 0 {
			t.Fatalf("%s: non-positive elapsed %v", r.Controller, r.Elapsed)
		}
		byName[r.Controller] = r
	}
	if !(byName["axi-hwicap"].MBPerSec < byName["pcap"].MBPerSec &&
		byName["pcap"].MBPerSec < byName["zycap"].MBPerSec &&
		byName["zycap"].MBPerSec < byName["dma-icap"].MBPerSec) {
		t.Fatalf("throughput ordering wrong: %v", results)
	}
	// Elapsed and MB/s must agree: 8 MB over dma-icap's ~380 MB/s is
	// ~20 ms.
	dma := byName["dma-icap"]
	gotMBs := 8.0 / dma.Elapsed.Seconds() // 8e6 bytes / (MB/s * 1e6)
	if gotMBs/dma.MBPerSec < 0.99 || gotMBs/dma.MBPerSec > 1.01 {
		t.Fatalf("Elapsed %v inconsistent with %.1f MB/s", dma.Elapsed, dma.MBPerSec)
	}
}

func TestReconfigThroughputsRepeats(t *testing.T) {
	// The model is deterministic: a repeated call measures every
	// controller exactly as the first did.
	one, err := ReconfigThroughputs(8_000_000)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ReconfigThroughputs(8_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one {
		if one[i] != again[i] {
			t.Fatalf("repeated call changed a deterministic measurement: %+v != %+v", one[i], again[i])
		}
	}
}

func TestPipelineFPSAPI(t *testing.T) {
	if fps := PipelineFPS(1920, 1080); fps < 48 || fps > 55 {
		t.Fatalf("FPS %v", fps)
	}
}

func TestScenarioHelpers(t *testing.T) {
	tt := TunnelTransit(1, 64, 36, 10)
	if tt.TotalFrames() == 0 {
		t.Fatal("empty tunnel scenario")
	}
	nh := NightHighway(1, 64, 36, 10)
	c, _ := nh.CondAt(0)
	if c != synth.Dark {
		t.Fatal("night highway not dark")
	}
}

func TestTrackingThroughReconfiguration(t *testing.T) {
	// End-to-end: with tracking enabled, the system maintains track
	// identity across the dusk->dark reconfiguration's dropped frame.
	d := getDets(t)
	sys, err := NewSystem(d, WithInitial(Dusk), WithTracking())
	if err != nil {
		t.Fatal(err)
	}
	duskDrive := NewDrive(31, 640, 360, Dusk, 1, 0)
	darkDrive := NewDrive(31, 640, 360, Dark, 1, 0)
	persist := map[int]int{}
	droppedSeen := false
	for i := 0; i < 30; i++ {
		var sc *Scene
		if i < 15 {
			sc = duskDrive.Frame(i)
		} else {
			sc = darkDrive.Frame(i)
		}
		res, err := sys.ProcessFrame(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.VehicleDropped {
			droppedSeen = true
		}
		for _, tr := range res.Tracks {
			persist[tr.ID]++
		}
	}
	if !droppedSeen {
		t.Fatal("transition did not drop a frame; scenario broken")
	}
	long := 0
	for _, n := range persist {
		if n >= 10 {
			long++
		}
	}
	if long == 0 {
		t.Fatal("no track persisted 10+ frames across the transition")
	}
}

func TestMetricsSnapshotEndToEnd(t *testing.T) {
	// Full-stack telemetry: real detectors, WithMetrics(), a drive
	// across day -> dusk (free model switch) -> dark (one partial
	// reconfiguration with its dropped vehicle frame), then the
	// public snapshot must account for every stage.
	d := getDets(t)
	sys, err := NewSystem(d, WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	const frames = 16
	drops := 0
	for i := 0; i < frames; i++ {
		cond := Day
		switch {
		case i >= 10:
			cond = Dark
		case i >= 5:
			cond = Dusk
		}
		res, err := sys.ProcessFrame(RenderScene(uint64(200+i), 64, 36, cond))
		if err != nil {
			t.Fatal(err)
		}
		if res.VehicleDropped {
			drops++
		}
	}
	if drops != 1 {
		t.Fatalf("drive dropped %d vehicle frames, want 1", drops)
	}

	var snap MetricsSnapshot = sys.Snapshot()
	if !snap.Enabled {
		t.Fatal("snapshot not enabled despite WithMetrics")
	}
	if snap.Frames.Frames != frames {
		t.Fatalf("frame count %d, want %d", snap.Frames.Frames, frames)
	}
	if snap.Frames.DeadlineHits+snap.Frames.DeadlineMisses != frames {
		t.Fatalf("hits %d + misses %d != %d frames",
			snap.Frames.DeadlineHits, snap.Frames.DeadlineMisses, frames)
	}
	want := map[string]uint64{
		"sense":           frames,
		"model-select":    1,          // day->dusk BRAM switch
		"reconfig":        1,          // dusk->dark bitstream swap
		"vehicle-scan":    frames - 1, // skipped on the dropped frame
		"pedestrian-scan": frames,     // static partition, never interrupted
	}
	for name, n := range want {
		st, ok := snap.StageByName(name)
		if !ok {
			t.Fatalf("stage %q missing from snapshot", name)
		}
		if st.Count != n {
			t.Fatalf("stage %q count %d, want %d", name, st.Count, n)
		}
	}
	// Software scans run on the CPU: their cost is wall time.
	for _, name := range []string{"vehicle-scan", "pedestrian-scan"} {
		if st, _ := snap.StageByName(name); st.WallNSTotal == 0 {
			t.Fatalf("stage %q recorded no wall time", name)
		}
	}
	// The reconfiguration is simulated hardware: ~20 ms of sim time.
	if rc, _ := snap.StageByName("reconfig"); rc.SimPSTotal < 19_000_000_000 || rc.SimPSTotal > 22_000_000_000 {
		t.Fatalf("reconfig stage %d ps outside ~20 ms", rc.SimPSTotal)
	}
	// Every HOG vehicle scan reports each of its ScanTimings stages,
	// and both exports carry them.
	resize, _ := snap.StageByName("scan-resize")
	if resize.Count == 0 {
		t.Fatal("no HOG scan reported its stages")
	}
	for _, name := range []string{"scan-feature", "scan-blocks", "scan-response", "scan-windows"} {
		if st, ok := snap.StageByName(name); !ok || st.Count != resize.Count {
			t.Fatalf("%s count %d (present %v), want one per HOG scan (%d)", name, st.Count, ok, resize.Count)
		}
	}
	var js bytes.Buffer
	if err := snap.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"scan-blocks"`) {
		t.Fatalf("JSON export missing the scan-blocks stage:\n%s", js.String())
	}
	var prom bytes.Buffer
	if err := sys.Metrics().WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`advdet_stage_invocations_total{stage="scan-blocks"} %d`, resize.Count); !strings.Contains(prom.String(), want) {
		t.Fatalf("Prometheus export missing %q:\n%s", want, prom.String())
	}
}

func TestMatchBoxesAPI(t *testing.T) {
	truth := []Rect{{X0: 0, Y0: 0, X1: 10, Y1: 10}}
	c := MatchBoxes(truth, truth, 0.5)
	if c.TP != 1 {
		t.Fatalf("MatchBoxes = %+v", c)
	}
}
