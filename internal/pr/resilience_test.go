package pr

import (
	"errors"
	"testing"

	"advdet/internal/fault"
	"advdet/internal/soc"
)

// stage preloads a DMAICAP so a controller under test can be driven
// through its staged path where applicable.
func stageOne(z *soc.Zynq, d *DMAICAP, id string, bytes int) {
	d.Stage(z, id, bytes, nil)
	z.Sim.Run()
}

// TestControllerErrorContract is the table-driven suite of the typed
// error API: every controller × busy rejection, zero and negative
// sizes, and (for the staged controller) unstaged and verify-failure
// paths — all asserted with errors.Is, never substrings.
func TestControllerErrorContract(t *testing.T) {
	controllers := []func() Controller{
		func() Controller { return &HWICAP{} },
		func() Controller { return &PCAP{} },
		func() Controller { return &ZyCAP{} },
		func() Controller { return NewDMAICAP() },
	}
	for _, mk := range controllers {
		ctrl := mk()
		t.Run(ctrl.Name()+"/busy", func(t *testing.T) {
			ctrl := mk()
			z := soc.NewZynq()
			if err := ctrl.Reconfigure(z, 1<<20, nil); err != nil {
				t.Fatal(err)
			}
			err := ctrl.Reconfigure(z, 1<<20, nil)
			if !errors.Is(err, ErrBusy) {
				t.Fatalf("overlapping reconfigure: got %v, want ErrBusy", err)
			}
			z.Sim.Run()
			// After the first completes, the engine accepts work again.
			if err := ctrl.Reconfigure(z, 1<<20, nil); err != nil {
				t.Fatalf("post-completion reconfigure: %v", err)
			}
		})
		t.Run(ctrl.Name()+"/size", func(t *testing.T) {
			ctrl := mk()
			z := soc.NewZynq()
			for _, n := range []int{0, -1, -1 << 20} {
				if err := ctrl.Reconfigure(z, n, nil); err == nil {
					t.Fatalf("size %d accepted", n)
				} else if errors.Is(err, ErrBusy) {
					t.Fatalf("size %d misreported as busy: %v", n, err)
				}
			}
		})
	}
}

// TestOverlapRejectedBySameEngine is the regression test for the
// fresh-DMA-per-call bug: the second of two overlapping reconfigures
// must be rejected by the engine that is actually streaming, and the
// first transfer must still complete exactly once.
func TestOverlapRejectedBySameEngine(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctrl Controller
	}{
		{"zycap", &ZyCAP{}},
		{"dma-icap", NewDMAICAP()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			z := soc.NewZynq()
			completions := 0
			if err := tc.ctrl.Reconfigure(z, 8<<20, func() { completions++ }); err != nil {
				t.Fatal(err)
			}
			err := tc.ctrl.Reconfigure(z, 8<<20, func() { completions++ })
			if !errors.Is(err, ErrBusy) {
				t.Fatalf("second overlapping reconfigure: got %v, want ErrBusy", err)
			}
			z.Sim.Run()
			if completions != 1 {
				t.Fatalf("completions = %d, want 1 (rejected call must not run)", completions)
			}
			if got := z.IRQ.Raised(soc.IRQPRDone); got != 1 {
				t.Fatalf("PR-done raised %d times, want 1", got)
			}
		})
	}
}

// TestStagedVsUnstaged pins the ErrNotStaged path and that staging
// clears it.
func TestStagedVsUnstaged(t *testing.T) {
	z := soc.NewZynq()
	d := NewDMAICAP()
	err := d.ReconfigureStaged(z, "dark", nil)
	if !errors.Is(err, ErrNotStaged) {
		t.Fatalf("unstaged reconfigure: got %v, want ErrNotStaged", err)
	}
	if errors.Is(err, ErrVerify) {
		t.Fatal("unstaged must not also report ErrVerify")
	}
	stageOne(z, d, "dark", 1<<20)
	if !d.Staged("dark") {
		t.Fatal("bitstream not resident after staging")
	}
	if err := d.Verify("dark"); err != nil {
		t.Fatalf("clean staging fails verify: %v", err)
	}
	if err := d.ReconfigureStaged(z, "dark", nil); err != nil {
		t.Fatalf("staged reconfigure: %v", err)
	}
}

// TestVerifyFailureOnCorruptStaging pins the CRC pass: a staging
// corrupted by the fault injector fails ReconfigureStaged with
// ErrVerify before any ICAP traffic, and re-staging clean recovers.
func TestVerifyFailureOnCorruptStaging(t *testing.T) {
	z := soc.NewZynq()
	d := NewDMAICAP()
	d.SetFaultPlan(fault.NewPlan(3).CorruptStage("dark", 1))
	stageOne(z, d, "dark", 1<<20)

	err := d.ReconfigureStaged(z, "dark", nil)
	if !errors.Is(err, ErrVerify) {
		t.Fatalf("corrupt staging: got %v, want ErrVerify", err)
	}
	if got := z.IRQ.Raised(soc.IRQPRDone); got != 0 {
		t.Fatalf("corrupt bitstream reached the ICAP: PR-done raised %d times", got)
	}
	// Re-stage from PS DDR (occurrence 2 is clean) and retry.
	stageOne(z, d, "dark", 1<<20)
	done := false
	if err := d.ReconfigureStaged(z, "dark", func() { done = true }); err != nil {
		t.Fatalf("post-restage reconfigure: %v", err)
	}
	z.Sim.Run()
	if !done {
		t.Fatal("post-restage reconfiguration never completed")
	}
}

// TestMeasureTimeoutOnAbortedStream pins the watchdog-path error: an
// injected mid-stream abort means the completion never fires, and
// Measure reports it as ErrTimeout; Abort re-arms the engine for a
// clean retry.
func TestMeasureTimeoutOnAbortedStream(t *testing.T) {
	d := NewDMAICAP()
	d.SetFaultPlan(fault.NewPlan(5).AbortDMA("pr-dma", 1, 1<<20))
	_, err := Measure(d, 8<<20)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("aborted stream: got %v, want ErrTimeout", err)
	}
	d.Abort()
	res, err := Measure(d, 8<<20)
	if err != nil {
		t.Fatalf("retry after abort: %v", err)
	}
	if res.MBPerSec < 387 || res.MBPerSec > 393 {
		t.Fatalf("retry throughput %.1f MB/s outside the dma-icap band", res.MBPerSec)
	}
}

// TestZyCAPAbortReArms mirrors the abort/re-arm contract on the ZyCAP
// engine.
func TestZyCAPAbortReArms(t *testing.T) {
	zc := &ZyCAP{}
	zc.SetFaultPlan(fault.NewPlan(5).AbortDMA("zycap-dma", 1, 1<<20))
	if _, err := Measure(zc, 8<<20); !errors.Is(err, ErrTimeout) {
		t.Fatalf("aborted stream: got %v, want ErrTimeout", err)
	}
	zc.Abort()
	if _, err := Measure(zc, 8<<20); err != nil {
		t.Fatalf("retry after abort: %v", err)
	}
}

// TestMeasureRejectsBadSize pins Measure's input contract and that a
// single run of the deterministic model is reproducible.
func TestMeasureRejectsBadSize(t *testing.T) {
	if _, err := Measure(&PCAP{}, 0); err == nil {
		t.Fatal("bitstream size 0 accepted")
	}
	one, err := Measure(&PCAP{}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Measure(&PCAP{}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if again.PS != one.PS {
		t.Fatalf("deterministic model: %d ps then %d ps", one.PS, again.PS)
	}
}

// TestRestageOverwritesCorruptImage pins that Stage replaces the
// resident image rather than accumulating state.
func TestRestageOverwritesCorruptImage(t *testing.T) {
	z := soc.NewZynq()
	d := NewDMAICAP()
	d.SetFaultPlan(fault.NewPlan(7).CorruptStage("day-dusk", 1))
	stageOne(z, d, "day-dusk", 1<<20)
	if err := d.Verify("day-dusk"); !errors.Is(err, ErrVerify) {
		t.Fatalf("corrupt image verify: got %v, want ErrVerify", err)
	}
	stageOne(z, d, "day-dusk", 1<<20)
	if err := d.Verify("day-dusk"); err != nil {
		t.Fatalf("re-staged image verify: %v", err)
	}
}
