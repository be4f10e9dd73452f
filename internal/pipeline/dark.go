package pipeline

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"advdet/internal/dbn"
	"advdet/internal/img"
	"advdet/internal/par"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

// DarkConfig parameterizes the dark pipeline of Figs. 3–4.
type DarkConfig struct {
	// LumaThresh is the luminance threshold isolating light sources.
	LumaThresh uint8
	// CrLow/CrHigh select the red-chroma band of taillights.
	CrLow, CrHigh uint8
	// Downsample is an explicit decimation factor; when zero the
	// factor is derived from TargetWidth per frame (1920-wide frames
	// decimate by 3 to the paper's 640x360 working map).
	Downsample int
	// TargetWidth is the working-map width used when Downsample is
	// zero (default 640).
	TargetWidth int
	// CloseRadius is the morphological closing structuring radius.
	CloseRadius int
	// Stride is the DBN sliding-window step (2 in the paper).
	Stride int
	// MinProb is the acceptance probability for a light window.
	MinProb float64
	// MaxPairDistFactor bounds the pair separation as a multiple of
	// the mean lamp width ("the distance between the two taillights is
	// expected to be within a specific range").
	MaxPairDistFactor float64
	// UseClosing and UseChroma exist for the ablation benches.
	UseClosing bool
	UseChroma  bool
	// UsePairSVM selects SVM spatial correlation (paper) vs. a pure
	// geometric gate (ablation baseline).
	UsePairSVM bool
}

// DefaultDarkConfig returns the paper's settings.
func DefaultDarkConfig() DarkConfig {
	return DarkConfig{
		LumaThresh:        90,
		CrLow:             150,
		CrHigh:            255,
		TargetWidth:       640,
		CloseRadius:       1,
		Stride:            dbn.Stride,
		MinProb:           0.5,
		MaxPairDistFactor: 9,
		UseClosing:        true,
		UseChroma:         true,
		UsePairSVM:        true,
	}
}

// Light is a taillight candidate in downsampled coordinates, with the
// DBN's size/shape class.
type Light struct {
	Box   img.Rect
	Class int // dbn.ClassSmall..ClassLarge
	Prob  float64
}

// DarkDetector is the trained dark pipeline.
type DarkDetector struct {
	Cfg     DarkConfig
	Net     *dbn.Network
	PairSVM *svm.Model
}

// NewDarkDetector assembles a detector from its trained components.
func NewDarkDetector(cfg DarkConfig, net *dbn.Network, pairSVM *svm.Model) *DarkDetector {
	return &DarkDetector{Cfg: cfg, Net: net, PairSVM: pairSVM}
}

// FactorFor returns the effective decimation factor for a frame of
// width w: the explicit Downsample if set, otherwise the factor that
// brings the frame closest to TargetWidth.
func (c DarkConfig) FactorFor(w int) int {
	if c.Downsample > 0 {
		return c.Downsample
	}
	tw := c.TargetWidth
	if tw <= 0 {
		tw = 640
	}
	f := (w + tw/2) / tw
	if f < 1 {
		f = 1
	}
	return f
}

// Preprocess runs the front half of the pipeline — split channels,
// dual threshold, downsample, closing — returning the binary map the
// DBN scans. Exposed so the SoC model and ablation benches can tap the
// intermediate result; the map is the caller's own copy.
func (d *DarkDetector) Preprocess(frame *img.RGB) *img.Binary {
	sc := borrowDarkScratch()
	defer releaseDarkScratch(sc)
	return d.preprocess(sc, frame).Clone()
}

// preprocess computes the DBN's input map into sc and returns it (one
// of sc's buffers). The fused mask kernel replaces the YCbCr planes,
// the two threshold maps and their AND; a factor-1 decimation reads
// the mask in place; the closing runs in place on the decimated map.
// Every stage computes the same bits as the plane-by-plane chain.
//
// lint:hotpath
func (d *DarkDetector) preprocess(sc *darkScratch, frame *img.RGB) *img.Binary {
	img.LightMask(&sc.mask, frame, d.Cfg.LumaThresh, d.Cfg.UseChroma, d.Cfg.CrLow, d.Cfg.CrHigh)
	b := img.DownsampleBinaryInto(&sc.dec, &sc.mask, d.Cfg.FactorFor(frame.W))
	if d.Cfg.UseClosing {
		sc.morph.Close(b, b, d.Cfg.CloseRadius)
	}
	return b
}

// ScanStats reports how much work the ROI gate saved on the last
// scan — the mechanism that lets the DBN stage hold 50 fps even
// though a DBN evaluation costs ~4 cycles per sample.
type ScanStats struct {
	Windows   int // window positions visited
	Evaluated int // windows with foreground, sent to the DBN
	Hits      int // windows classified as a lamp
}

// GatedFraction returns the share of windows the ROI gate skipped.
func (s ScanStats) GatedFraction() float64 {
	if s.Windows == 0 {
		return 0
	}
	return 1 - float64(s.Evaluated)/float64(s.Windows)
}

// ScanLights slides the 9x9 DBN over the binary map with the
// configured stride, keeps windows classified as a lamp with
// sufficient probability, and merges overlapping hits into light
// candidates.
func (d *DarkDetector) ScanLights(b *img.Binary) []Light {
	lights, _ := d.ScanLightsStats(b)
	return lights
}

// ScanLightsStats is ScanLights with work accounting, on the calling
// goroutine; see ScanLightsStatsCtx for the parallel engine.
func (d *DarkDetector) ScanLightsStats(b *img.Binary) ([]Light, ScanStats) {
	lights, stats, _ := d.ScanLightsStatsCtx(context.Background(), b, 1) // lint:ctxroot serial wrapper; background ctx cannot fail
	return lights, stats
}

// ScanLightsStatsCtx fans the window rows of the DBN scan across
// workers goroutines (workers <= 0 means GOMAXPROCS). Each row owns its
// output slot and rows are reassembled in raster order, so the merged
// light list is identical for every worker count. On cancellation it
// returns the context's error.
func (d *DarkDetector) ScanLightsStatsCtx(ctx context.Context, b *img.Binary, workers int) ([]Light, ScanStats, error) {
	sc := borrowDarkScratch()
	defer releaseDarkScratch(sc)
	return d.scanLights(ctx, sc, b, workers)
}

// scanLights is the DBN sweep over b with sc's buffers. The ROI gate
// (the RTL gates the DBN the same way to hold 50 fps) skips windows
// with no foreground at all; it reads each window's foreground sum from
// a summed-area table of b, exact in integers, so only the windows it
// passes gather their 81 inputs. Classification runs into per-worker
// window and activation buffers.
//
// lint:hotpath
func (d *DarkDetector) scanLights(ctx context.Context, sc *darkScratch, b *img.Binary, workers int) ([]Light, ScanStats, error) {
	const side = dbn.Window
	stride := d.Cfg.Stride
	ny := scanPositions(b.H, side, stride)
	sat := sc.integral(b)
	w1 := b.W + 1
	rows, rowStats := sc.setRows(ny)
	locals := sc.setLocals(par.Workers(workers))
	var next atomic.Int32
	err := par.ForEachLocal(ctx, workers, ny,
		func() *darkLocal { return locals[next.Add(1)-1] },
		func(i int, loc *darkLocal) {
			y := i * stride
			top, bot := sat[y*w1:], sat[(y+side)*w1:]
			window := loc.window
			hits := rows[i][:0]
			var st ScanStats
			for x := 0; x+side <= b.W; x += stride {
				st.Windows++
				if bot[x+side]-bot[x]-top[x+side]+top[x] == 0 {
					continue
				}
				st.Evaluated++
				for wy := 0; wy < side; wy++ {
					row := b.Pix[(y+wy)*b.W+x : (y+wy)*b.W+x+side]
					for wx, v := range row {
						window[wy*side+wx] = float64(v)
					}
				}
				class, prob := d.Net.ClassifyInto(window, &loc.acts)
				if class == dbn.ClassNone || prob < d.Cfg.MinProb {
					continue
				}
				st.Hits++
				hits = append(hits, Light{ // lint:alloc a few hits per frame; the row slot keeps its capacity across frames
					Box:   img.Rect{X0: x, Y0: y, X1: x + side, Y1: y + side},
					Class: class,
					Prob:  prob,
				})
			}
			rows[i], rowStats[i] = hits, st
		})
	if err != nil {
		return nil, ScanStats{}, err
	}
	hits := sc.hits[:0]
	var stats ScanStats
	for i := range rows {
		hits = append(hits, rows[i]...) // lint:alloc the frame's hit arena grows to its high-water mark once
		stats.Windows += rowStats[i].Windows
		stats.Evaluated += rowStats[i].Evaluated
		stats.Hits += rowStats[i].Hits
	}
	sc.hits = hits
	if cap(sc.used) < len(hits) {
		sc.used = make([]bool, len(hits))
	}
	return mergeLights(hits, sc.used[:len(hits)]), stats, nil
}

// mergeLights unions overlapping window hits into one candidate per
// lamp, keeping the highest-probability class. used is scratch of
// len(hits); the returned lights are freshly allocated (nil for no
// hits).
func mergeLights(hits []Light, used []bool) []Light {
	if len(hits) == 0 {
		return nil
	}
	out := make([]Light, 0, len(hits))
	clear(used)
	for i := range hits {
		if used[i] {
			continue
		}
		cur := hits[i]
		used[i] = true
		changed := true
		for changed {
			changed = false
			for j := range hits {
				if used[j] {
					continue
				}
				if cur.Box.Intersect(hits[j].Box).Area() > 0 {
					cur.Box = cur.Box.Union(hits[j].Box)
					if hits[j].Prob > cur.Prob {
						cur.Prob = hits[j].Prob
						cur.Class = hits[j].Class
					}
					used[j] = true
					changed = true
				}
			}
		}
		out = append(out, cur)
	}
	return out
}

// PairFeatures computes the spatial-correlation feature vector for a
// candidate lamp pair: vertical misalignment, separation relative to
// lamp size, size ratio, and class agreement.
func PairFeatures(a, b Light) []float64 {
	f := pairFeatures(a, b)
	return f[:]
}

// pairFeatures is PairFeatures as a value, so the pairing loop scores
// candidates without allocating a feature slice each.
func pairFeatures(a, b Light) [4]float64 {
	acx, acy := a.Box.Center()
	bcx, bcy := b.Box.Center()
	meanW := float64(a.Box.W()+b.Box.W()) / 2
	meanH := float64(a.Box.H()+b.Box.H()) / 2
	if meanW == 0 {
		meanW = 1
	}
	if meanH == 0 {
		meanH = 1
	}
	dy := math.Abs(float64(acy-bcy)) / meanH
	sep := math.Abs(float64(acx-bcx)) / meanW
	sizeRatio := math.Log(float64(a.Box.Area()+1) / float64(b.Box.Area()+1))
	classDiff := math.Abs(float64(a.Class - b.Class))
	return [4]float64{dy, sep, math.Abs(sizeRatio), classDiff}
}

// geometricPairGate is the ablation baseline: fixed thresholds on the
// same features the SVM sees.
func (d *DarkDetector) geometricPairGate(f []float64) bool {
	return f[0] < 0.8 && f[1] > 1.2 && f[1] < d.Cfg.MaxPairDistFactor && f[2] < 0.9 && f[3] <= 1
}

// Detect runs the full dark pipeline on an RGB frame and returns
// vehicle detections in frame coordinates, on the calling goroutine;
// see DetectCtx for the parallel engine.
func (d *DarkDetector) Detect(frame *img.RGB) []Detection {
	dets, _ := d.DetectCtx(context.Background(), frame, 1) // lint:ctxroot serial wrapper; background ctx cannot fail
	return dets
}

// DetectCtx is Detect with cancellation and a bounded worker pool for
// the DBN sliding-window stage (workers <= 0 means GOMAXPROCS). Output is
// identical for every worker count.
func (d *DarkDetector) DetectCtx(ctx context.Context, frame *img.RGB, workers int) ([]Detection, error) {
	return d.DetectTimedCtx(ctx, frame, workers, nil)
}

// DarkTimings breaks one dark frame into the wall-clock stages of
// Figs. 3–4: the front half (mask, decimation, closing), the DBN
// window sweep, and lamp pairing.
type DarkTimings struct {
	Preprocess time.Duration
	DBN        time.Duration
	Pair       time.Duration
}

// DetectTimedCtx is DetectCtx that also reports per-stage wall time
// into tm when tm is non-nil; tm is written only on success. One
// pooled scratch serves the whole frame, so a steady-state frame
// allocates only its output.
func (d *DarkDetector) DetectTimedCtx(ctx context.Context, frame *img.RGB, workers int, tm *DarkTimings) ([]Detection, error) {
	sc := borrowDarkScratch()
	defer releaseDarkScratch(sc)
	now := func() time.Time {
		if tm == nil {
			return time.Time{}
		}
		return time.Now()
	}
	t0 := now()
	b := d.preprocess(sc, frame)
	t1 := now()
	lights, _, err := d.scanLights(ctx, sc, b, workers)
	if err != nil {
		return nil, fmt.Errorf("pipeline: dark detect: %w", err)
	}
	t2 := now()
	dets := d.pairLights(lights, frame, d.Cfg.FactorFor(frame.W))
	if tm != nil {
		*tm = DarkTimings{Preprocess: t1.Sub(t0), DBN: t2.Sub(t1), Pair: time.Since(t2)}
	}
	return dets, nil
}

// pairLights runs the spatial-correlation back half of the pipeline:
// candidate lamps are paired, gated, scored, and expanded to vehicle
// boxes in full-resolution frame coordinates.
func (d *DarkDetector) pairLights(lights []Light, frame *img.RGB, factor int) []Detection {
	var dets []Detection
	for i := 0; i < len(lights); i++ {
		for j := i + 1; j < len(lights); j++ {
			a, c := lights[i], lights[j]
			// Hard distance gate: "only a particular region around
			// each detected taillight is processed for matching".
			acx, _ := a.Box.Center()
			ccx, _ := c.Box.Center()
			meanW := float64(a.Box.W()+c.Box.W()) / 2
			if math.Abs(float64(acx-ccx)) > d.Cfg.MaxPairDistFactor*meanW {
				continue
			}
			f := pairFeatures(a, c)
			var ok bool
			var score float64
			if d.Cfg.UsePairSVM && d.PairSVM != nil {
				score = d.PairSVM.Margin(f[:])
				ok = score > 0
			} else {
				ok = d.geometricPairGate(f[:])
				score = 1
			}
			if !ok {
				continue
			}
			// Vehicle box: union of the lamp pair, expanded to body
			// extent, mapped back to full resolution.
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

// ClassifyCrop decides whether a dark RGB crop contains a vehicle, the
// operation behind the "95% on the SYSU subset" evaluation of §III-B.
func (d *DarkDetector) ClassifyCrop(frame *img.RGB) bool {
	return len(d.Detect(frame)) > 0
}

// TrainPairSVM trains the spatial-correlation SVM on synthetic lamp
// pair geometry: positives follow the taillight-pair distribution
// (level, similar size, separation a few lamp-widths), negatives
// violate at least one constraint.
func TrainPairSVM(seed uint64, n int, opts svm.Options) (*svm.Model, error) {
	rng := synth.NewRNG(seed)
	var p svm.Problem
	mkLight := func(cx, cy, w, h int, class int) Light {
		return Light{Box: img.Rect{X0: cx - w/2, Y0: cy - h/2, X1: cx + w/2 + 1, Y1: cy + h/2 + 1}, Class: class}
	}
	for i := 0; i < n; i++ {
		// Positive pair.
		w := rng.IntRange(3, 12)
		h := w * rng.IntRange(70, 110) / 100
		cls := rng.IntRange(1, 3)
		sep := int(float64(w) * rng.Range(2.0, 7.0))
		y := rng.IntRange(20, 200)
		x := rng.IntRange(20, 400)
		dy := rng.IntRange(0, h/4)
		a := mkLight(x, y, w, h, cls)
		b := mkLight(x+sep, y+dy, w+rng.IntRange(-1, 1), h+rng.IntRange(-1, 1), cls)
		p.X = append(p.X, PairFeatures(a, b))
		p.Y = append(p.Y, 1)

		// Negative pair: break one property at random.
		w2 := rng.IntRange(3, 12)
		h2 := w2
		switch rng.Intn(3) {
		case 0: // vertical misalignment (e.g. road light above a lamp)
			a = mkLight(x, y, w2, h2, cls)
			b = mkLight(x+sep, y+h2*rng.IntRange(2, 6), w2, h2, cls)
		case 1: // size mismatch (near lamp vs far lamp of another car)
			a = mkLight(x, y, w2, h2, 1)
			b = mkLight(x+sep, y+dy, w2*4, h2*4, 3)
		default: // implausible separation (two independent cars)
			a = mkLight(x, y, w2, h2, cls)
			b = mkLight(x+w2*rng.IntRange(12, 30), y+dy, w2, h2, cls)
		}
		p.X = append(p.X, PairFeatures(a, b))
		p.Y = append(p.Y, -1)
	}
	m, err := svm.Train(p, opts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: train pair SVM: %w", err)
	}
	return m, nil
}

// TrainDarkDetector trains the full dark pipeline: the DBN on labeled
// 9x9 windows (cropped taillights, per the paper's use of SYSU
// training images) and the pair SVM on lamp-pair geometry.
func TrainDarkDetector(seed uint64, cfg DarkConfig, dbnCfg dbn.Config, windowsPerClass int) (*DarkDetector, error) {
	X, labels := synth.TaillightWindowSet(seed, windowsPerClass)
	net, err := dbn.Train(X, labels, dbnCfg, synth.NewRNG(seed^0x5eed))
	if err != nil {
		return nil, fmt.Errorf("pipeline: train DBN: %w", err)
	}
	pairOpts := svm.DefaultOptions()
	pair, err := TrainPairSVM(seed^0xbeef, 400, pairOpts)
	if err != nil {
		return nil, err
	}
	return NewDarkDetector(cfg, net, pair), nil
}
