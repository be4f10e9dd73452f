package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"advdet"
	"advdet/internal/fleet"
	"advdet/internal/img"
	"advdet/internal/ledger"
	"advdet/internal/par"
	"advdet/internal/pipeline"
	"advdet/internal/synth"
)

// span is one timed call, kept in memory and written out at the end.
// Spans of one frame share Trace; Parent names the span that caused
// this one. Replay spans are leaf calls re-run after the timed phase.
type span struct {
	Trace  int64   `json:"trace"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Replay bool    `json:"replay,omitempty"`
}

// layerSamples collects the per-layer observations of a traced run.
type layerSamples struct {
	queueWait, self, gray                   []float64 // ms
	vehicle, vehicleAllocs                  []float64
	stages                                  map[string][]float64
	pedestrian, pedestrianAllocs            []float64
	dark, darkAllocs, preprocess, dbn, pair []float64
	appendUS                                []float64
	tiles                                   ratio // hits of hits+misses+refreshes
	dbnEvaluated                            ratio // evaluated of windows
	shed                                    ratio // shed of traced frames
	events, replayedFrames                  int
	spans                                   []span
}

// stageNames are the ScanTimings stages, in the order the scan runs
// them, under the layer that owns each.
var stageNames = []string{
	"hog.resize_ms", "hog.feature_ms", "haar.prefilter_ms", "hog.blocks_ms",
	"svm.response_ms", "svm.windows_ms", "pipeline.temporal_ms",
}

func stageDurations(tm *pipeline.ScanTimings) []time.Duration {
	return []time.Duration{tm.Resize, tm.Feature, tm.Prefilter, tm.Blocks, tm.Response, tm.Windows, tm.Temporal}
}

// replayer re-runs the leaf calls of traced frames with the arguments
// the frame path uses. Its HOG detectors are clones with their own
// temporal caches, so the streams' state is untouched, and it appends
// the frames' events to a ledger of its own.
type replayer struct {
	workers int
	day     *pipeline.DayDuskDetector
	dusk    *pipeline.DayDuskDetector
	ped     *pipeline.PedestrianDetector
	dark    *pipeline.DarkDetector
	led     *ledger.Ledger
	buf     []byte
	epoch   time.Time
	s       *layerSamples
}

func newReplayer(dets advdet.Detectors, epoch time.Time, s *layerSamples) *replayer {
	day, dusk, ped := *dets.Day, *dets.Dusk, *dets.Pedestrian
	day.Temporal, dusk.Temporal, ped.Temporal = pipeline.NewTemporalCache(), pipeline.NewTemporalCache(), pipeline.NewTemporalCache()
	return &replayer{
		// The frame path borrows par.Workers(0) lanes from the engine
		// pool; a lone replay gets them all.
		workers: par.Workers(0),
		day:     &day, dusk: &dusk, ped: &ped, dark: dets.Dark,
		led:   ledger.New(ledger.Config{}),
		epoch: epoch,
		s:     s,
	}
}

// timed runs fn, records its span and returns its duration and the
// heap objects it allocated.
func (rp *replayer) timed(trace int64, name, parent string, fn func()) (time.Duration, uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	rp.s.spans = append(rp.s.spans, span{Trace: trace, Name: name, Parent: parent,
		Start: us(t0.Sub(rp.epoch)), End: us(t1.Sub(rp.epoch)), Replay: true})
	return t1.Sub(t0), m1.Mallocs - m0.Mallocs
}

// frame replays one traced frame and checks that the replayed scans
// find what the frame path found.
func (rp *replayer) frame(ctx context.Context, trace int64, sc *synth.Scene, fo *frameOut) error {
	const root = "adaptive.process_frame"
	s := rp.s
	res := fo.res
	if res.ReconfigStarted {
		// The frame path drops its scan caches when it requests a
		// reconfiguration.
		rp.day.Temporal.Invalidate()
		rp.dusk.Temporal.Invalidate()
		rp.ped.Temporal.Invalidate()
	}
	var leaves []time.Duration
	gray := func() *img.Gray {
		var g *img.Gray
		d, _ := rp.timed(trace, "img.gray", root, func() { g = img.RGBToGray(sc.Frame) })
		s.gray = append(s.gray, ms(d))
		leaves = append(leaves, d)
		return g
	}
	var err error
	var vehicles []pipeline.Detection
	switch {
	case res.VehicleDropped:
	case res.VehicleStale:
		// The served model is not in the frame result; leave the scan
		// out rather than time the wrong one.
	case res.Cond == synth.Dark:
		d, allocs := rp.timed(trace, "pipeline.dark", root, func() {
			vehicles, err = rp.dark.DetectCtx(ctx, sc.Frame, rp.workers)
		})
		if err != nil {
			return err
		}
		var bin *img.Binary
		dPre, _ := rp.timed(trace, "img.dark_preprocess", "pipeline.dark", func() { bin = rp.dark.Preprocess(sc.Frame) })
		var st pipeline.ScanStats
		dScan, _ := rp.timed(trace, "dbn.scan", "pipeline.dark", func() {
			_, st, err = rp.dark.ScanLightsStatsCtx(ctx, bin, rp.workers)
		})
		if err != nil {
			return err
		}
		s.dark = append(s.dark, ms(d))
		s.darkAllocs = append(s.darkAllocs, float64(allocs))
		s.preprocess = append(s.preprocess, ms(dPre))
		s.dbn = append(s.dbn, ms(dScan))
		s.pair = append(s.pair, ms(residual(d, dPre, dScan)))
		s.dbnEvaluated.Num += st.Evaluated
		s.dbnEvaluated.Den += st.Windows
		leaves = append(leaves, d)
	default:
		det := rp.day
		if res.Cond == synth.Dusk {
			det = rp.dusk
		}
		g := gray()
		var tm pipeline.ScanTimings
		d, allocs := rp.timed(trace, "pipeline.vehicle_scan", root, func() {
			vehicles, err = det.DetectTimedCtx(ctx, g, rp.workers, &tm)
		})
		if err != nil {
			return err
		}
		s.vehicle = append(s.vehicle, ms(d))
		s.vehicleAllocs = append(s.vehicleAllocs, float64(allocs))
		for k, sd := range stageDurations(&tm) {
			s.stages[stageNames[k]] = append(s.stages[stageNames[k]], ms(sd))
		}
		rp.addTiles(&tm)
		leaves = append(leaves, d)
	}
	if !res.VehicleStale && !reflect.DeepEqual(vehicles, res.Vehicles) {
		return fmt.Errorf("replayed vehicle scan found %d boxes, the frame path %d", len(vehicles), len(res.Vehicles))
	}

	g := gray()
	var tm pipeline.ScanTimings
	var peds []pipeline.Detection
	d, allocs := rp.timed(trace, "pipeline.pedestrian_scan", root, func() {
		peds, err = rp.ped.DetectTimedCtx(ctx, g, rp.workers, &tm)
	})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(peds, res.Pedestrians) {
		return fmt.Errorf("replayed pedestrian scan found %d boxes, the frame path %d", len(peds), len(res.Pedestrians))
	}
	s.pedestrian = append(s.pedestrian, ms(d))
	s.pedestrianAllocs = append(s.pedestrianAllocs, float64(allocs))
	rp.addTiles(&tm)
	leaves = append(leaves, d)

	for _, ev := range fo.events {
		rp.buf = ev.AppendBinary(rp.buf[:0])
		t0 := time.Now()
		rp.led.Append(ev.Stream, ev.PS, rp.buf)
		da := time.Since(t0)
		rp.s.spans = append(rp.s.spans, span{Trace: trace, Name: "ledger.append", Parent: root,
			Start: us(t0.Sub(rp.epoch)), End: us(t0.Add(da).Sub(rp.epoch)), Replay: true})
		s.appendUS = append(s.appendUS, us(da))
		leaves = append(leaves, da)
	}
	s.events += len(fo.events)
	s.replayedFrames++
	s.self = append(s.self, ms(residual(fo.process.End-fo.process.Start, leaves...)))
	return nil
}

func (rp *replayer) addTiles(tm *pipeline.ScanTimings) {
	rp.s.tiles.Num += tm.TileHits
	rp.s.tiles.Den += tm.TileHits + tm.TileMisses + tm.TileRefreshes
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// traceID names the frames of one stream run.
func traceID(run, frame int) int64 { return int64(run)<<20 | int64(frame) }

// collectTrace records the root spans of every traced frame and
// replays the leaves. Every traced pass saw the same frames, so only
// each camera's first traced pass is replayed.
func collectTrace(ctx context.Context, r *runner) (*layerSamples, error) {
	s := &layerSamples{stages: map[string][]float64{}}
	replayed := map[int]bool{}
	for k, sr := range r.runs {
		if !sr.traced {
			continue
		}
		for i := range sr.out {
			fo := &sr.out[i]
			s.shed.Den++
			if errors.Is(fo.err, fleet.ErrOverloaded) {
				s.shed.Num++
			}
			if fo.err != nil {
				continue
			}
			s.spans = append(s.spans,
				span{Trace: traceID(k, i), Name: "fleet.submit", Start: us(fo.submit.Start), End: us(fo.submit.End)},
				span{Trace: traceID(k, i), Name: "adaptive.process_frame", Parent: "fleet.submit", Start: us(fo.process.Start), End: us(fo.process.End)})
			s.queueWait = append(s.queueWait, ms(selfTime(fo.submit, []interval{fo.process})))
		}
		if replayed[sr.cam] {
			continue
		}
		replayed[sr.cam] = true
		rp := newReplayer(r.eng.Detectors(), r.epoch, s)
		frames := r.wl.cameras[sr.cam].frames
		for i := range sr.out {
			if sr.out[i].err != nil {
				continue
			}
			if err := rp.frame(ctx, traceID(k, i), frames[i], &sr.out[i]); err != nil {
				return nil, fmt.Errorf("replay %s frame %d: %w", r.wl.cameras[sr.cam].name, i, err)
			}
		}
		rp.led.SealOpen()
		if _, err := verifyLedger(rp.led); err != nil {
			return nil, fmt.Errorf("replay ledger: %w", err)
		}
	}
	return s, nil
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
