package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestStageNames(t *testing.T) {
	want := []string{"sense", "model-select", "vehicle-scan",
		"pedestrian-scan", "dma-stream", "reconfig", "reconfig-fault",
		"scan-resize", "scan-feature", "scan-blocks", "scan-response",
		"scan-windows", "scan-temporal", "fleet-dispatch"}
	for i, w := range want {
		if got := Stage(i).String(); got != w {
			t.Fatalf("Stage(%d) = %q, want %q", i, got, w)
		}
	}
	if Stage(-1).String() != "unknown" || NumStages.String() != "unknown" {
		t.Fatal("out-of-range stage not reported unknown")
	}
}

func TestStageObserveAccumulates(t *testing.T) {
	r := NewRegistry()
	r.StageObserve(StageDMAStream, 1000, 5)
	r.StageObserve(StageDMAStream, 3000, 7)
	snap := r.Snapshot()
	st, ok := snap.StageByName("dma-stream")
	if !ok {
		t.Fatal("dma-stream stage missing from snapshot")
	}
	if st.Count != 2 || st.SimPSTotal != 4000 || st.WallNSTotal != 12 {
		t.Fatalf("stage snapshot %+v", st)
	}
	if st.SimMeanPS != 2000 {
		t.Fatalf("mean = %v, want 2000", st.SimMeanPS)
	}
}

func TestFrameObserveBudgetAccounting(t *testing.T) {
	r := NewRegistry()
	r.FrameObserve(18_000_000, 2_000_000, 100)  // hit with 2 µs headroom
	r.FrameObserve(25_000_000, -5_000_000, 120) // miss by 5 µs
	r.FrameObserve(18_000_000, 0, 90)           // exactly on the deadline: a hit
	f := r.Snapshot().Frames
	if f.Frames != 3 || f.DeadlineHits != 2 || f.DeadlineMisses != 1 {
		t.Fatalf("frame accounting %+v", f)
	}
	if f.OverrunMaxPS != 5_000_000 {
		t.Fatalf("overrun max = %d, want 5e6", f.OverrunMaxPS)
	}
	if f.HeadroomMinPS != 0 {
		t.Fatalf("headroom min = %d, want 0 (boundary hit)", f.HeadroomMinPS)
	}
	if f.LatencyMaxPS != 25_000_000 {
		t.Fatalf("latency max = %d", f.LatencyMaxPS)
	}
}

func TestGauges(t *testing.T) {
	r := NewRegistry()
	r.SetGauge(GaugeLoadedConfig, 1)
	r.SetGauge(GaugeFrameIndex, 41)
	r.SetGauge(GaugeFrameIndex, 42)
	if v := r.GaugeValue(GaugeFrameIndex); v != 42 {
		t.Fatalf("gauge = %d, want 42", v)
	}
	snap := r.Snapshot()
	found := false
	for _, g := range snap.Gauges {
		if g.Gauge == "loaded_config" && g.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("loaded_config gauge missing: %+v", snap.Gauges)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	h.init(expBuckets(1, 20)) // 1,2,4,...
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 || h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("count/min/max %d/%d/%d", h.Count(), h.Min(), h.Max())
	}
	p50 := h.Quantile(0.5)
	if p50 < 256 || p50 > 1000 {
		t.Fatalf("p50 = %d, want within coarse-bucket range [256,1000]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 || p99 > 1000 {
		t.Fatalf("p99 = %d out of order (p50 %d)", p99, p50)
	}
	if q := h.Quantile(0); q < 1 || q > 2 {
		t.Fatalf("q0 = %d, want ~min", q)
	}
	if q := h.Quantile(1); q != 1000 {
		t.Fatalf("q1 = %d, want max", q)
	}
}

func TestHistogramEmptyAndSingle(t *testing.T) {
	var h Histogram
	h.init(DefaultBucketsPS())
	if h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	h.Observe(12345678)
	if q := h.Quantile(0.5); q != 12345678 {
		t.Fatalf("single-sample p50 = %d, want exact value via min/max clamp", q)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	h.init([]uint64{10, 100})
	h.Observe(1_000_000) // beyond all bounds
	bs := h.Buckets()
	if len(bs) != 3 || bs[2].UpperBound != math.MaxUint64 || bs[2].Count != 1 {
		t.Fatalf("overflow bucket wrong: %+v", bs)
	}
	if q := h.Quantile(0.99); q != 1_000_000 {
		t.Fatalf("overflow quantile = %d, want clamped to max", q)
	}
}

func TestNilRegistryIsSafeNoOp(t *testing.T) {
	var r *Registry
	r.StageObserve(StageSense, 1, 1)
	r.FrameObserve(1, 1, 1)
	r.SetGauge(GaugeLoadedConfig, 1)
	if r.StageCount(StageSense) != 0 || r.GaugeValue(GaugeLoadedConfig) != 0 {
		t.Fatal("nil registry returned non-zero")
	}
	snap := r.Snapshot()
	if snap.Enabled {
		t.Fatal("nil registry snapshot claims enabled")
	}
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteProm wrote %d bytes, err %v", buf.Len(), err)
	}
}

// TestHotPathZeroAlloc is the acceptance gate: every per-frame
// recording operation must be allocation-free, on both the enabled
// registry and the nil (disabled) one.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	if n := testing.AllocsPerRun(1000, func() {
		r.StageObserve(StageDMAStream, 123_456, 789)
		r.StageObserve(StageSense, 0, 42)
		r.FrameObserve(18_000_000, 2_000_000, 1000)
		r.FrameObserve(25_000_000, -1_000_000, 1200)
		r.SetGauge(GaugeFrameIndex, 7)
	}); n != 0 {
		t.Fatalf("enabled hot path allocates %v times/op, want 0", n)
	}
	var nilR *Registry
	if n := testing.AllocsPerRun(1000, func() {
		nilR.StageObserve(StageDMAStream, 123_456, 789)
		nilR.FrameObserve(18_000_000, 2_000_000, 1000)
		nilR.SetGauge(GaugeFrameIndex, 7)
	}); n != 0 {
		t.Fatalf("disabled hot path allocates %v times/op, want 0", n)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.StageObserve(StageDMAStream, 100, 1)
				r.FrameObserve(100, 1, 1)
			}
		}()
	}
	wg.Wait()
	if got := r.StageCount(StageDMAStream); got != workers*per {
		t.Fatalf("stage count %d, want %d", got, workers*per)
	}
	if f := r.Snapshot().Frames; f.Frames != workers*per || f.DeadlineHits != workers*per {
		t.Fatalf("frame counters %+v", f)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.StageObserve(StageReconfig, 20_500_000_000, 0)
	r.FrameObserve(12_000_000, 8_000_000, 900)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON not parseable: %v", err)
	}
	if !back.Enabled || len(back.Stages) != int(NumStages) {
		t.Fatalf("round-tripped snapshot %+v", back)
	}
	st, ok := back.StageByName("reconfig")
	if !ok || st.Count != 1 || st.SimPSTotal != 20_500_000_000 {
		t.Fatalf("reconfig stage lost in JSON: %+v", st)
	}
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.StageObserve(StageVehicleScan, 5_000_000, 2000)
	r.FrameObserve(12_000_000, 8_000_000, 900)
	r.SetGauge(GaugeReconfigInFlight, 1)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`advdet_stage_invocations_total{stage="vehicle-scan"} 1`,
		`advdet_stage_sim_picoseconds_total{stage="vehicle-scan"} 5000000`,
		"advdet_frames_total 1",
		"advdet_frame_deadline_hits_total 1",
		`advdet_frame_latency_ps_bucket{le="+Inf"} 1`,
		"advdet_frame_latency_ps_count 1",
		`advdet_gauge{name="reconfig_in_flight"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Deterministic output: two writes must be byte-identical.
	var buf2 bytes.Buffer
	if err := r.WriteProm(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("WriteProm output not deterministic")
	}
}

func BenchmarkStageObserve(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.StageObserve(StageDMAStream, uint64(i), uint64(i))
	}
}

func BenchmarkFrameObserve(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.FrameObserve(uint64(i), int64(i%3)-1, uint64(i))
	}
}

// TestSnapshotRowOrderPinned pins the snapshot's row order to the
// declaration order of the stage and fault enums: Snapshot assembles
// rows from index loops over fixed arrays, never from map iteration,
// so two snapshots of the same registry are byte-identical. This is
// the determinism contract detorder freezes for this package.
func TestSnapshotRowOrderPinned(t *testing.T) {
	r := NewRegistry()
	for i := Stage(0); i < NumStages; i++ {
		r.StageObserve(i, 1, 1)
	}
	for k := FaultKind(0); k < NumFaultKinds; k++ {
		r.FaultAdd(k)
	}
	snap := r.Snapshot()
	if len(snap.Stages) != int(NumStages) {
		t.Fatalf("snapshot has %d stage rows, want %d", len(snap.Stages), NumStages)
	}
	for i, row := range snap.Stages {
		if want := Stage(i).String(); row.Stage != want {
			t.Errorf("stage row %d = %q, want %q (enum order)", i, row.Stage, want)
		}
	}
	if len(snap.Faults) != int(NumFaultKinds) {
		t.Fatalf("snapshot has %d fault rows, want %d", len(snap.Faults), NumFaultKinds)
	}
	for i, row := range snap.Faults {
		if want := FaultKind(i).String(); row.Kind != want {
			t.Errorf("fault row %d = %q, want %q (enum order)", i, row.Kind, want)
		}
	}
}
