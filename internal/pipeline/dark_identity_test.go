package pipeline

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"advdet/internal/dbn"
	"advdet/internal/img"
	"advdet/internal/synth"
)

// The reference dark pipeline: the per-operation chain the pooled,
// fused one replaced, kept here as its oracle. Preprocess converts to
// full YCbCr planes, thresholds each, ANDs, decimates into a fresh map
// and closes with the clamped per-pixel loops; the scan gathers every
// window and classifies each one with an allocating Net.Classify; the
// pairing builds each candidate's feature slice.

func refDilate(b *img.Binary, radius int) *img.Binary {
	if radius <= 0 {
		return b.Clone()
	}
	tmp := img.NewBinary(b.W, b.H)
	for y := 0; y < b.H; y++ {
		row := y * b.W
		for x := 0; x < b.W; x++ {
			v := uint8(0)
			for dx := -radius; dx <= radius; dx++ {
				xx := x + dx
				if xx >= 0 && xx < b.W && b.Pix[row+xx] != 0 {
					v = 1
					break
				}
			}
			tmp.Pix[row+x] = v
		}
	}
	out := img.NewBinary(b.W, b.H)
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			v := uint8(0)
			for dy := -radius; dy <= radius; dy++ {
				yy := y + dy
				if yy >= 0 && yy < b.H && tmp.Pix[yy*b.W+x] != 0 {
					v = 1
					break
				}
			}
			out.Pix[y*b.W+x] = v
		}
	}
	return out
}

func refErode(b *img.Binary, radius int) *img.Binary {
	if radius <= 0 {
		return b.Clone()
	}
	tmp := img.NewBinary(b.W, b.H)
	for y := 0; y < b.H; y++ {
		row := y * b.W
		for x := 0; x < b.W; x++ {
			v := uint8(1)
			for dx := -radius; dx <= radius; dx++ {
				xx := x + dx
				if xx < 0 || xx >= b.W || b.Pix[row+xx] == 0 {
					v = 0
					break
				}
			}
			tmp.Pix[row+x] = v
		}
	}
	out := img.NewBinary(b.W, b.H)
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			v := uint8(1)
			for dy := -radius; dy <= radius; dy++ {
				yy := y + dy
				if yy < 0 || yy >= b.H || tmp.Pix[yy*b.W+x] == 0 {
					v = 0
					break
				}
			}
			out.Pix[y*b.W+x] = v
		}
	}
	return out
}

func refPreprocess(d *DarkDetector, frame *img.RGB) *img.Binary {
	c := img.RGBToYCbCr(frame)
	var b *img.Binary
	if d.Cfg.UseChroma {
		b = img.DualThreshold(c, d.Cfg.LumaThresh, d.Cfg.CrLow, d.Cfg.CrHigh)
	} else {
		b = img.Threshold(c.Luma(), d.Cfg.LumaThresh)
	}
	b = img.DownsampleBinary(b, d.Cfg.FactorFor(frame.W))
	if d.Cfg.UseClosing {
		b = refErode(refDilate(b, d.Cfg.CloseRadius), d.Cfg.CloseRadius)
	}
	return b
}

func refScan(d *DarkDetector, b *img.Binary) ([]Light, ScanStats) {
	side := dbn.Window
	var hits []Light
	var st ScanStats
	window := make([]float64, side*side)
	for y := 0; y+side <= b.H; y += d.Cfg.Stride {
		for x := 0; x+side <= b.W; x += d.Cfg.Stride {
			st.Windows++
			count := 0
			for wy := 0; wy < side; wy++ {
				row := (y + wy) * b.W
				for wx := 0; wx < side; wx++ {
					v := b.Pix[row+x+wx]
					window[wy*side+wx] = float64(v)
					count += int(v)
				}
			}
			if count == 0 {
				continue
			}
			st.Evaluated++
			class, prob := d.Net.Classify(window)
			if class == dbn.ClassNone || prob < d.Cfg.MinProb {
				continue
			}
			st.Hits++
			hits = append(hits, Light{
				Box:   img.Rect{X0: x, Y0: y, X1: x + side, Y1: y + side},
				Class: class,
				Prob:  prob,
			})
		}
	}
	return mergeLights(hits, make([]bool, len(hits))), st
}

func refPair(d *DarkDetector, lights []Light, frame *img.RGB, factor int) []Detection {
	var dets []Detection
	for i := 0; i < len(lights); i++ {
		for j := i + 1; j < len(lights); j++ {
			a, c := lights[i], lights[j]
			acx, _ := a.Box.Center()
			ccx, _ := c.Box.Center()
			meanW := float64(a.Box.W()+c.Box.W()) / 2
			if math.Abs(float64(acx-ccx)) > d.Cfg.MaxPairDistFactor*meanW {
				continue
			}
			f := PairFeatures(a, c)
			var ok bool
			var score float64
			if d.Cfg.UsePairSVM && d.PairSVM != nil {
				score = d.PairSVM.Margin(f)
				ok = score > 0
			} else {
				ok = d.geometricPairGate(f)
				score = 1
			}
			if !ok {
				continue
			}
			u := a.Box.Union(c.Box)
			expandY := u.W() / 2
			box := img.Rect{
				X0: (u.X0 - u.W()/8) * factor,
				Y0: (u.Y0 - expandY) * factor,
				X1: (u.X1 + u.W()/8) * factor,
				Y1: (u.Y1 + expandY/2) * factor,
			}
			box = box.Intersect(img.Rect{X0: 0, Y0: 0, X1: frame.W, Y1: frame.H})
			if box.Empty() {
				continue
			}
			dets = append(dets, Detection{Box: box, Score: score + a.Prob + c.Prob, Kind: KindVehicle})
		}
	}
	return NMS(dets, 0.3)
}

// namedFrame is one byte-identity input.
type namedFrame struct {
	name  string
	frame *img.RGB
}

// darkFrames renders the byte-identity inputs: NightHighway frames at
// the working size and at HDTV (decimated by 3), and 96x96 dark
// vehicle and negative crops.
func darkFrames() []namedFrame {
	var frames []namedFrame
	night := synth.NightHighway(15, 640, 360, 36)
	for _, i := range []int{0, 7, 101} {
		frames = append(frames, namedFrame{fmt.Sprintf("night640/%d", i), night.FrameAt(i).Frame})
	}
	hd := synth.NightHighway(16, 1920, 1080, 36)
	frames = append(frames, namedFrame{"night1920/3", hd.FrameAt(3).Frame})
	for s := uint64(0); s < 3; s++ {
		frames = append(frames,
			namedFrame{fmt.Sprintf("crop/vehicle%d", s), synth.VehicleCrop(synth.NewRNG(900+s), 96, 96, synth.Dark)},
			namedFrame{fmt.Sprintf("crop/negative%d", s), synth.NegativeCrop(synth.NewRNG(950+s), 96, 96, synth.Dark)})
	}
	return frames
}

// TestDarkPipelineByteIdentical pins the pooled, fused dark pipeline
// to the per-operation reference: preprocess bitmaps, scan lights and
// ScanStats, and detections are reflect.DeepEqual across frame sizes,
// configuration variants and worker counts.
func TestDarkPipelineByteIdentical(t *testing.T) {
	base := quickDark(t, 0)
	frames := darkFrames()
	variants := []struct {
		name string
		set  func(c *DarkConfig)
	}{
		{"paper", func(c *DarkConfig) {}},
		{"no-chroma", func(c *DarkConfig) { c.UseChroma = false }},
		{"no-closing", func(c *DarkConfig) { c.UseClosing = false }},
		{"radius0", func(c *DarkConfig) { c.CloseRadius = 0 }},
		{"radius2", func(c *DarkConfig) { c.CloseRadius = 2 }},
		{"downsample2", func(c *DarkConfig) { c.Downsample = 2 }},
		{"geometric-pair", func(c *DarkConfig) { c.UsePairSVM = false }},
	}
	ctx := context.Background()
	var lightsSeen, detsSeen int
	for _, v := range variants {
		det := *base
		v.set(&det.Cfg)
		for _, nf := range frames {
			name, frame := nf.name, nf.frame
			wantBin := refPreprocess(&det, frame)
			wantLights, wantStats := refScan(&det, wantBin)
			wantDets := refPair(&det, wantLights, frame, det.Cfg.FactorFor(frame.W))
			lightsSeen += len(wantLights)
			detsSeen += len(wantDets)
			bin := det.Preprocess(frame)
			if !reflect.DeepEqual(bin, wantBin) {
				t.Fatalf("%s %s: preprocess map differs from the reference", v.name, name)
			}
			for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				lights, stats, err := det.ScanLightsStatsCtx(ctx, bin, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(lights, wantLights) || stats != wantStats {
					t.Fatalf("%s %s workers=%d: scan gave %d lights %+v, reference %d lights %+v",
						v.name, name, workers, len(lights), stats, len(wantLights), wantStats)
				}
				dets, err := det.DetectCtx(ctx, frame, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(dets, wantDets) {
					t.Fatalf("%s %s workers=%d: %d detections, reference %d", v.name, name, workers, len(dets), len(wantDets))
				}
			}
		}
	}
	if lightsSeen == 0 || detsSeen == 0 {
		t.Fatalf("the table exercised %d lights and %d detections; it must exercise both", lightsSeen, detsSeen)
	}
}
