package adaptive

import (
	"testing"

	"advdet/internal/pipeline"
	"advdet/internal/soc"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

func testBank() (*soc.Sim, *ModelBank) {
	sim := &soc.Sim{}
	day := &svm.Model{W: make([]float64, 8)}
	dusk := &svm.Model{W: make([]float64, 8)}
	return sim, NewModelBank(sim, soc.NewGPPort("gp"), day, dusk)
}

func TestModelBankSelect(t *testing.T) {
	_, mb := testBank()
	if _, name := mb.Active(); name != "day" {
		t.Fatalf("initial model %q", name)
	}
	if err := mb.Select(1); err != nil {
		t.Fatal(err)
	}
	if _, name := mb.Active(); name != "dusk" {
		t.Fatalf("active model %q after select", name)
	}
	if mb.Switches != 1 {
		t.Fatalf("switches = %d", mb.Switches)
	}
	// Reselecting the active slot is not a switch.
	if err := mb.Select(1); err != nil {
		t.Fatal(err)
	}
	if mb.Switches != 1 {
		t.Fatal("no-op select counted as a switch")
	}
}

func TestModelBankInvalidSlot(t *testing.T) {
	_, mb := testBank()
	if err := mb.Select(2); err == nil {
		t.Fatal("invalid slot accepted")
	}
}

func TestModelBankSwitchCostTiny(t *testing.T) {
	// A model switch is one AXI-Lite write (~210 ns): at least four
	// orders of magnitude below the 20 ms reconfiguration.
	_, mb := testBank()
	if err := mb.Select(1); err != nil {
		t.Fatal(err)
	}
	cost := mb.SwitchCostPS()
	if cost == 0 {
		t.Fatal("switch cost unaccounted")
	}
	reconfigPS := uint64(20e9) // 20 ms
	if cost*10_000 > reconfigPS {
		t.Fatalf("model switch cost %d ps too large", cost)
	}
}

func TestModelBankBRAMBytes(t *testing.T) {
	_, mb := testBank()
	if got := mb.BRAMBytes(); got != 2*4*9 {
		t.Fatalf("BRAMBytes = %d", got)
	}
}

func TestSystemCountsModelSwitches(t *testing.T) {
	day := &svm.Model{W: make([]float64, 4)}
	dusk := &svm.Model{W: make([]float64, 4)}
	opt := DefaultOptions()
	opt.RunDetectors = false
	s, err := bootSystem(Detectors{
		Day:  pipeline.NewDayDuskDetector(day),
		Dusk: pipeline.NewDayDuskDetector(dusk),
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Day -> dusk -> day: two model switches, zero reconfigurations.
	feed := func(cond synth.Condition, lux float64, n int) {
		for i := 0; i < n; i++ {
			s.ProcessFrame(sceneFor(cond, lux))
		}
	}
	feed(synth.Day, 10000, 4)
	feed(synth.Dusk, 300, 6)
	feed(synth.Day, 10000, 6)
	st := s.Stats()
	if st.ModelSwitches != 2 {
		t.Fatalf("model switches = %d, want 2", st.ModelSwitches)
	}
	if len(st.Reconfigs) != 0 {
		t.Fatalf("reconfigs = %d, want 0", len(st.Reconfigs))
	}
	if st.VehicleDropped != 0 {
		t.Fatalf("dropped = %d, want 0 (model switch is free)", st.VehicleDropped)
	}
}
