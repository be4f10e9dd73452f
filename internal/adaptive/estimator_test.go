package adaptive

import (
	"testing"

	"advdet/internal/img"
	"advdet/internal/synth"
)

func renderCond(seed uint64, cond synth.Condition) *synth.Scene {
	return synth.RenderScene(synth.NewRNG(seed), synth.DefaultSceneConfig(160, 90, cond))
}

func TestEstimateLuxSeparatesConditions(t *testing.T) {
	// Image-based estimates must fall into the monitor's bands for
	// the right condition on a strong majority of scenes.
	type band struct{ lo, hi float64 }
	bands := map[synth.Condition]band{
		synth.Day:  {4000, 1e9},
		synth.Dusk: {40, 4000},
		synth.Dark: {0, 70},
	}
	for cond, b := range bands {
		hits := 0
		for s := uint64(0); s < 20; s++ {
			lux := EstimateLux(renderCond(100+s, cond).Frame)
			if lux >= b.lo && lux <= b.hi {
				hits++
			}
		}
		if hits < 16 {
			t.Errorf("%v: only %d/20 estimates in band [%v, %v]", cond, hits, b.lo, b.hi)
		}
	}
}

func TestEstimateLuxIgnoresSaturatedLamps(t *testing.T) {
	// A dark frame with huge bright lamps must still read as dark.
	m := img.NewRGB(100, 100)
	m.Fill(10, 10, 14)
	img.FillRect(m, img.Rect{X0: 10, Y0: 10, X1: 40, Y1: 40}, 255, 250, 245)
	img.FillRect(m, img.Rect{X0: 60, Y0: 10, X1: 90, Y1: 40}, 255, 250, 245)
	if lux := EstimateLux(m); lux > 40 {
		t.Fatalf("lamp-heavy dark frame estimated at %v lux", lux)
	}
}

func TestEstimateLuxFullySaturated(t *testing.T) {
	m := img.NewRGB(8, 8)
	m.Fill(255, 255, 255)
	if lux := EstimateLux(m); lux != 1 {
		t.Fatalf("fully saturated frame = %v lux, want the flash fallback", lux)
	}
}

func TestSystemWithImageSensing(t *testing.T) {
	// The system must still reconfigure into dark using only frame
	// content (no sensor).
	opt := DefaultOptions()
	opt.Initial = synth.Dusk
	opt.RunDetectors = false
	opt.SenseFromImage = true
	s, err := bootSystem(Detectors{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5; i++ {
		s.ProcessFrame(renderCond(200+i, synth.Dusk))
	}
	for i := uint64(0); i < 15; i++ {
		s.ProcessFrame(renderCond(300+i, synth.Dark))
	}
	st := s.Stats()
	if len(st.Reconfigs) != 1 || st.Reconfigs[0].To != CfgDark {
		t.Fatalf("image sensing failed to trigger the dark reconfiguration: %+v", st.Reconfigs)
	}
}
