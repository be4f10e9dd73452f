package adaptive

import (
	"errors"
	"testing"

	"advdet/internal/fault"
	"advdet/internal/pipeline"
	"advdet/internal/pr"
	"advdet/internal/soc"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

// resilientSystem builds a timing-only system with a fault plan and
// retry policy installed.
func resilientSystem(t *testing.T, initial synth.Condition, plan *fault.Plan, retry RetryPolicy) *System {
	t.Helper()
	opt := DefaultOptions()
	opt.Initial = initial
	opt.RunDetectors = false
	opt.FaultPlan = plan
	opt.Retry = retry
	opt.EnableMetrics = true
	s, err := bootSystem(Detectors{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// driveToDark runs dusk frames then dark frames through the system.
func driveToDark(s *System, duskFrames, darkFrames int) []FrameResult {
	var out []FrameResult
	for i := 0; i < duskFrames; i++ {
		r, _ := s.ProcessFrame(sceneFor(synth.Dusk, 300))
		out = append(out, r)
	}
	for i := 0; i < darkFrames; i++ {
		r, _ := s.ProcessFrame(sceneFor(synth.Dark, 5))
		out = append(out, r)
	}
	return out
}

// hasFault reports whether the fault log holds an entry wrapping the
// sentinel.
func hasFault(st Stats, sentinel error) bool {
	for _, f := range st.FaultLog {
		if errors.Is(f.Err, sentinel) {
			return true
		}
	}
	return false
}

// TestVerifyFailureRestagesAndRecovers corrupts the boot staging of
// the dark bitstream: the dusk->dark switch must fail its CRC pass,
// re-stage from PS DDR, retry, and land — and every frame in between
// must serve the last-good day-dusk model instead of dropping.
func TestVerifyFailureRestagesAndRecovers(t *testing.T) {
	plan := fault.NewPlan(1).CorruptStage(CfgDark.String(), 1)
	s := resilientSystem(t, synth.Dusk, plan, RetryPolicy{})
	results := driveToDark(s, 5, 30)

	st := s.Stats()
	if s.Loaded() != CfgDark {
		t.Fatalf("loaded = %v, want dark after recovery", s.Loaded())
	}
	if s.Mode() != ModeNominal {
		t.Fatalf("mode = %v, want nominal after recovery", s.Mode())
	}
	if st.VerifyFailures != 1 {
		t.Fatalf("verify failures = %d, want 1", st.VerifyFailures)
	}
	if st.Retries != 1 {
		t.Fatalf("retries = %d, want 1", st.Retries)
	}
	if len(st.Reconfigs) != 1 {
		t.Fatalf("reconfig records = %d, want 1 (retries share the record)", len(st.Reconfigs))
	}
	rec := st.Reconfigs[0]
	if rec.Attempts != 2 || rec.DonePS == 0 {
		t.Fatalf("reconfig attempts=%d done=%d, want 2 attempts and completion", rec.Attempts, rec.DonePS)
	}
	if !hasFault(st, pr.ErrVerify) {
		t.Fatalf("fault log lacks ErrVerify: %+v", st.FaultLog)
	}
	if st.StaleVehicleFrames == 0 {
		t.Fatal("no stale vehicle frames: the retry window must serve the resident model")
	}
	// The static partition is untouchable: pedestrians ran every frame.
	if st.PedestrianFrames != len(results) {
		t.Fatalf("pedestrian frames = %d, want %d", st.PedestrianFrames, len(results))
	}
	// Recovering mode was visible on the stale frames, and recovery on
	// the last.
	sawRecovering := false
	for _, r := range results {
		if r.VehicleStale && r.Mode == ModeRecovering {
			sawRecovering = true
		}
		if r.VehicleStale && r.VehicleDropped {
			t.Fatal("a frame cannot be both stale and dropped")
		}
	}
	if !sawRecovering {
		t.Fatal("no frame observed ModeRecovering while stale")
	}
	if last := results[len(results)-1]; last.Mode != ModeNominal || last.VehicleStale {
		t.Fatalf("last frame mode=%v stale=%v, want nominal and fresh", last.Mode, last.VehicleStale)
	}
	// Telemetry saw the same story.
	snap := s.Snapshot()
	if row, _ := snap.FaultByKind("verify"); row.Count != 1 {
		t.Fatalf("metrics verify count = %d, want 1", row.Count)
	}
	if row, _ := snap.FaultByKind("retry"); row.Count != 1 {
		t.Fatalf("metrics retry count = %d, want 1", row.Count)
	}
	if row, _ := snap.FaultByKind("stale-vehicle-frame"); row.Count != uint64(st.StaleVehicleFrames) {
		t.Fatalf("metrics stale count = %d, stats say %d", row.Count, st.StaleVehicleFrames)
	}
}

// TestDroppedPRDoneWatchdogRetries drops the first PR-done interrupt:
// the completion is genuinely lost, the watchdog must abandon the
// attempt after its simulated-time deadline and the retry must land.
func TestDroppedPRDoneWatchdogRetries(t *testing.T) {
	plan := fault.NewPlan(2).DropIRQ(soc.IRQPRDone, 1)
	s := resilientSystem(t, synth.Dusk, plan, RetryPolicy{})
	results := driveToDark(s, 5, 30)

	st := s.Stats()
	if s.Loaded() != CfgDark || s.Mode() != ModeNominal {
		t.Fatalf("loaded=%v mode=%v, want dark/nominal", s.Loaded(), s.Mode())
	}
	if st.WatchdogTrips != 1 {
		t.Fatalf("watchdog trips = %d, want 1", st.WatchdogTrips)
	}
	if st.Retries != 1 {
		t.Fatalf("retries = %d, want 1", st.Retries)
	}
	if st.IRQsDropped != 1 {
		t.Fatalf("IRQs dropped = %d, want 1", st.IRQsDropped)
	}
	if len(st.Reconfigs) != 1 || st.Reconfigs[0].Attempts != 2 || st.Reconfigs[0].DonePS == 0 {
		t.Fatalf("reconfigs = %+v, want one completed record with 2 attempts", st.Reconfigs)
	}
	if !hasFault(st, pr.ErrTimeout) {
		t.Fatalf("fault log lacks ErrTimeout: %+v", st.FaultLog)
	}
	// The fabric was actively rewritten across the original stream and
	// the retry: more than the nominal single dropped frame, but
	// bounded, and pedestrians never stopped.
	if st.VehicleDropped < 2 || st.VehicleDropped > 4 {
		t.Fatalf("vehicle frames dropped = %d, want 2..4", st.VehicleDropped)
	}
	if st.PedestrianFrames != len(results) {
		t.Fatalf("pedestrian frames = %d, want %d", st.PedestrianFrames, len(results))
	}
	snap := s.Snapshot()
	if row, _ := snap.FaultByKind("watchdog"); row.Count != 1 {
		t.Fatalf("metrics watchdog count = %d, want 1", row.Count)
	}
	if row, _ := snap.FaultByKind("irq-dropped"); row.Count != 1 {
		t.Fatalf("metrics irq-dropped count = %d, want 1", row.Count)
	}
}

// TestDegradedAfterBudgetThenAutoRecovery exhausts the retry budget
// (two consecutive dropped PR-done interrupts against MaxRetries=1):
// the system must report ModeDegraded, keep serving both detectors,
// keep retrying at the capped cadence, and recover to nominal on the
// next clean completion — without operator intervention.
func TestDegradedAfterBudgetThenAutoRecovery(t *testing.T) {
	plan := fault.NewPlan(3).
		DropIRQ(soc.IRQPRDone, 1).
		DropIRQ(soc.IRQPRDone, 2)
	s := resilientSystem(t, synth.Dusk, plan, RetryPolicy{MaxRetries: 1})
	results := driveToDark(s, 5, 40)

	st := s.Stats()
	if s.Loaded() != CfgDark || s.Mode() != ModeNominal {
		t.Fatalf("loaded=%v mode=%v, want dark/nominal after auto-recovery", s.Loaded(), s.Mode())
	}
	if st.WatchdogTrips != 2 || st.Retries != 2 || st.IRQsDropped != 2 {
		t.Fatalf("trips=%d retries=%d dropped=%d, want 2/2/2",
			st.WatchdogTrips, st.Retries, st.IRQsDropped)
	}
	if len(st.Reconfigs) != 1 || st.Reconfigs[0].Attempts != 3 {
		t.Fatalf("reconfigs = %+v, want one record with 3 attempts", st.Reconfigs)
	}
	if st.DegradedFrames == 0 {
		t.Fatal("no degraded frames recorded past the retry budget")
	}
	// Mode sequence over the drive: nominal -> recovering -> degraded
	// -> nominal, in that order.
	var seq []Mode
	for _, r := range results {
		if len(seq) == 0 || seq[len(seq)-1] != r.Mode {
			seq = append(seq, r.Mode)
		}
	}
	want := []Mode{ModeNominal, ModeRecovering, ModeDegraded, ModeNominal}
	if len(seq) != len(want) {
		t.Fatalf("mode sequence %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("mode sequence %v, want %v", seq, want)
		}
	}
	if st.PedestrianFrames != len(results) {
		t.Fatalf("pedestrian frames = %d, want %d (static partition never stops)",
			st.PedestrianFrames, len(results))
	}
	snap := s.Snapshot()
	if row, _ := snap.FaultByKind("degraded-frame"); row.Count != uint64(st.DegradedFrames) {
		t.Fatalf("metrics degraded count = %d, stats say %d", row.Count, st.DegradedFrames)
	}
	if g, ok := snap.GaugeByName("mode"); !ok || g.Value != uint64(ModeNominal) {
		t.Fatalf("mode gauge = %+v, want nominal", g)
	}
}

// TestStallBeyondWatchdogAborts stalls the PR DMA mid-stream for
// longer than the watchdog deadline: the abandoned attempt's late
// completion must be swallowed (not mistaken for the retry's) and the
// retry must land.
func TestStallBeyondWatchdogAborts(t *testing.T) {
	plan := fault.NewPlan(4).StallDMA("pr-dma", 1, 4<<20, 30_000_000_000)
	s := resilientSystem(t, synth.Dusk, plan, RetryPolicy{})
	driveToDark(s, 5, 30)

	st := s.Stats()
	if s.Loaded() != CfgDark || s.Mode() != ModeNominal {
		t.Fatalf("loaded=%v mode=%v, want dark/nominal", s.Loaded(), s.Mode())
	}
	if st.WatchdogTrips != 1 {
		t.Fatalf("watchdog trips = %d, want 1", st.WatchdogTrips)
	}
	if !hasFault(st, pr.ErrTimeout) {
		t.Fatalf("fault log lacks ErrTimeout: %+v", st.FaultLog)
	}
	if len(st.Reconfigs) != 1 || st.Reconfigs[0].DonePS == 0 {
		t.Fatalf("reconfigs = %+v, want one completed record", st.Reconfigs)
	}
}

// TestAbortMidStreamRecovers error-halts the PR DMA one MB into the
// stream: no completion, no interrupt, watchdog, retry, recovery.
func TestAbortMidStreamRecovers(t *testing.T) {
	plan := fault.NewPlan(5).AbortDMA("pr-dma", 1, 1<<20)
	s := resilientSystem(t, synth.Dusk, plan, RetryPolicy{})
	driveToDark(s, 5, 30)

	st := s.Stats()
	if s.Loaded() != CfgDark || s.Mode() != ModeNominal {
		t.Fatalf("loaded=%v mode=%v, want dark/nominal", s.Loaded(), s.Mode())
	}
	if st.WatchdogTrips != 1 || st.Retries != 1 {
		t.Fatalf("trips=%d retries=%d, want 1/1", st.WatchdogTrips, st.Retries)
	}
}

// TestConditionReversionCancelsPending makes every staging of the
// dark bitstream corrupt, so the switch can never launch; when the
// light reverts to dusk the pending transition must be cancelled, the
// mode must return to nominal, and the already-booked retry must
// no-op instead of resurrecting the transition.
func TestConditionReversionCancelsPending(t *testing.T) {
	plan := fault.NewPlan(6).CorruptStage(CfgDark.String(), 0)
	s := resilientSystem(t, synth.Dusk, plan, RetryPolicy{MaxRetries: 100})
	driveToDark(s, 5, 5)
	for i := 0; i < 10; i++ {
		s.ProcessFrame(sceneFor(synth.Dusk, 300))
	}

	st := s.Stats()
	if s.Loaded() != CfgDayDusk {
		t.Fatalf("loaded = %v, want day-dusk (switch never landed)", s.Loaded())
	}
	if s.Mode() != ModeNominal {
		t.Fatalf("mode = %v, want nominal after reversion", s.Mode())
	}
	if len(st.Reconfigs) != 1 || st.Reconfigs[0].DonePS != 0 {
		t.Fatalf("reconfigs = %+v, want one abandoned record", st.Reconfigs)
	}
	if st.VerifyFailures == 0 || !hasFault(st, pr.ErrVerify) {
		t.Fatalf("verify failures = %d, fault log %+v", st.VerifyFailures, st.FaultLog)
	}
	// The retry engine is quiescent: more frames add no retries.
	before := st.Retries
	for i := 0; i < 10; i++ {
		r, _ := s.ProcessFrame(sceneFor(synth.Dusk, 300))
		if r.VehicleStale || r.VehicleDropped {
			t.Fatalf("frame %d stale=%v dropped=%v after reversion", r.Index, r.VehicleStale, r.VehicleDropped)
		}
	}
	if after := s.Stats().Retries; after != before {
		t.Fatalf("retries grew %d -> %d after the pending transition was cancelled", before, after)
	}
}

// TestBankSelectFaultServesPreviousModel fails the first day->dusk
// BRAM select write: the frame must keep the previous model (no
// half-switched state), count the fault, and the idempotent select
// must succeed on the next frame.
func TestBankSelectFaultServesPreviousModel(t *testing.T) {
	day := &svm.Model{W: make([]float64, 4)}
	dusk := &svm.Model{W: make([]float64, 4)}
	opt := DefaultOptions()
	opt.RunDetectors = false
	opt.EnableMetrics = true
	// The select register is written every clean day-dusk frame (the
	// write is idempotent), so the day->dusk switching write after four
	// day frames and the two-frame debounce is the 7th select.
	opt.FaultPlan = fault.NewPlan(7).FailBankSelect(7)
	s, err := bootSystem(Detectors{
		Day:  pipeline.NewDayDuskDetector(day),
		Dusk: pipeline.NewDayDuskDetector(dusk),
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(cond synth.Condition, lux float64, n int) {
		for i := 0; i < n; i++ {
			s.ProcessFrame(sceneFor(cond, lux))
		}
	}
	feed(synth.Day, 10000, 4)
	// Debounce flips the condition on the 3rd dusk frame; that frame's
	// select write is the first one since boot and is the one injected.
	feed(synth.Dusk, 300, 2)
	feed(synth.Dusk, 300, 1)
	st := s.Stats()
	if st.BankSelectFaults != 1 {
		t.Fatalf("bank-select faults = %d, want 1", st.BankSelectFaults)
	}
	if st.ModelSwitches != 0 {
		t.Fatalf("model switches = %d, want 0 (the faulted write must not switch)", st.ModelSwitches)
	}
	if _, name := s.bank.Active(); name != "day" {
		t.Fatalf("active model %q, want day (previous model keeps serving)", name)
	}
	// Next frame: the same select retries and lands.
	feed(synth.Dusk, 300, 1)
	st = s.Stats()
	if st.ModelSwitches != 1 {
		t.Fatalf("model switches = %d, want 1 after the retried select", st.ModelSwitches)
	}
	if _, name := s.bank.Active(); name != "dusk" {
		t.Fatalf("active model %q, want dusk", name)
	}
	if len(st.Reconfigs) != 0 {
		t.Fatalf("reconfigs = %d, want 0 (bank select never reconfigures)", len(st.Reconfigs))
	}
	snap := s.Snapshot()
	if row, _ := snap.FaultByKind("bank-select"); row.Count != 1 {
		t.Fatalf("metrics bank-select count = %d, want 1", row.Count)
	}
}

// TestRetryPolicyBackoff pins the exponential-backoff arithmetic.
func TestRetryPolicyBackoff(t *testing.T) {
	rp := RetryPolicy{BackoffPS: 2, BackoffMult: 2, MaxBackoffPS: 12}.withDefaults()
	want := []uint64{2, 4, 8, 12, 12}
	for i, w := range want {
		if got := rp.backoffFor(i + 1); got != w {
			t.Fatalf("backoffFor(%d) = %d, want %d", i+1, got, w)
		}
	}
	// Zero-valued policy resolves to the default.
	def := RetryPolicy{}.withDefaults()
	if def != DefaultRetryPolicy() {
		t.Fatalf("withDefaults() = %+v, want %+v", def, DefaultRetryPolicy())
	}
}

// TestModeStrings pins the wire names dashboards key on.
func TestModeStrings(t *testing.T) {
	cases := map[Mode]string{ModeNominal: "nominal", ModeRecovering: "recovering", ModeDegraded: "degraded", Mode(9): "unknown"}
	for m, w := range cases {
		if m.String() != w {
			t.Fatalf("Mode(%d).String() = %q, want %q", m, m.String(), w)
		}
	}
}
