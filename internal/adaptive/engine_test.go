package adaptive

import (
	"sync"
	"testing"

	"advdet/internal/synth"
)

func TestEngineNewSystemSharesDetectorsAndPool(t *testing.T) {
	eng := NewEngine(Detectors{}, EngineConfig{Parallelism: 2})
	if eng.Pool().Size() != 2 {
		t.Fatalf("pool size %d, want 2", eng.Pool().Size())
	}
	opt := DefaultOptions()
	opt.RunDetectors = false
	a, err := eng.NewSystem(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.NewSystem(opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Engine() != eng || b.Engine() != eng {
		t.Fatal("systems not bound to the shared engine")
	}
	if a.Z == b.Z || a.Monitor == b.Monitor {
		t.Fatal("per-stream state must not be shared between systems")
	}
}

// Timing-only systems never touch the lane pool, so any number of them
// can share a one-lane engine without contention.
func TestTimingOnlyStreamsSkipLanePool(t *testing.T) {
	eng := NewEngine(Detectors{}, EngineConfig{Parallelism: 1})
	opt := DefaultOptions()
	opt.RunDetectors = false
	sc := sceneFor(synth.Day, 10_000)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		sys, err := eng.NewSystem(opt)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := 0; f < 30; f++ {
				if _, err := sys.ProcessFrame(sc); err != nil {
					t.Errorf("frame %d: %v", f, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// The shared lane must still be fully available.
	if got := eng.Pool().Acquire(1); got != 1 {
		t.Fatalf("lane leaked: Acquire(1) = %d", got)
	}
	eng.Pool().Release(1)
}

func TestFrameLaneGrantReleasedEachFrame(t *testing.T) {
	eng := NewEngine(Detectors{}, EngineConfig{Parallelism: 3})
	opt := DefaultOptions()
	opt.RunDetectors = true // detectors are nil, but the grant path runs
	opt.Parallelism = 2
	sys, err := eng.NewSystem(opt)
	if err != nil {
		t.Fatal(err)
	}
	sc := sceneFor(synth.Day, 10_000)
	for f := 0; f < 5; f++ {
		if _, err := sys.ProcessFrame(sc); err != nil {
			t.Fatal(err)
		}
		if sys.grant != 0 {
			t.Fatalf("frame %d left grant %d outstanding", f, sys.grant)
		}
	}
	if got := eng.Pool().Acquire(3); got != 3 {
		t.Fatalf("lanes leaked across frames: Acquire(3) = %d", got)
	}
	eng.Pool().Release(3)
}
