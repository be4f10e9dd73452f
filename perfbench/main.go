// Command perfbench is the repository benchmark. It renders a
// workload's frames from a seed, sets up the detection engine, drives
// the frames through it for a fixed time, checks every output against
// a serial reference and the ledger against its own hashes, and prints
// the metrics. The last line of its output is one JSON object.
//
//	bash perfbench/run.sh --workload drive --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// times each layer from the outside and reports the per-layer metrics.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"advdet"
	"advdet/internal/fleet"
)

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
	note  string
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "drive, night or fleet-static")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed renders the same frames")
	seconds := fs.Int("seconds", 15, "how long the timed phase runs")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	outDir := fs.String("out", ".bench_build", "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	trace := *traceFlag == 1
	if err := bench(ctx, *name, *seed, *seconds, trace, *outDir, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func bench(ctx context.Context, name string, seed uint64, seconds int, trace bool, outDir string, stdout io.Writer) error {
	wl, err := makeWorkload(name, seed)
	if err != nil {
		return err
	}
	r, setupSecs, err := setUp(wl)
	if err != nil {
		return err
	}
	defer r.eng.Close()
	if trace {
		r.disp = fleet.NewDispatcher(fleet.Config{})
		defer r.disp.Close()
	}

	runtime.GC()
	r.epoch = time.Now()
	err = r.closedLoop(ctx, time.Duration(seconds)*time.Second, trace)
	if err == nil && trace && wl.rate > 0 {
		err = r.openLoop(ctx)
	}
	if err != nil {
		return err
	}
	peakRSS := maxRSS()

	// Close seals the ledger's tail batch.
	r.eng.Close()
	var problems []string
	if rep, err := verifyLedger(r.eng.Ledger()); err != nil {
		problems = append(problems, err.Error())
	} else {
		fmt.Fprintf(stdout, "ledger: %d events in %d batches over %d streams verify\n", rep.Events, rep.Batches, rep.Streams)
	}
	ref, err := reference(r.eng.Detectors(), wl)
	if err != nil {
		return err
	}
	if bad, lines := compareRuns(wl, r.runs, ref, 5); bad > 0 {
		problems = append(problems, fmt.Sprintf("%d frames do not match the serial reference", bad))
		problems = append(problems, lines...)
	}

	e2e := endToEnd(r, setupSecs, peakRSS)
	quality := qualityMetrics(r)
	var layers []metric
	if trace {
		s, err := collectTrace(ctx, r)
		if err != nil {
			problems = append(problems, err.Error())
		} else {
			layers = perLayer(r, s, quality)
			path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, seed))
			if err := writeSpans(path, s.spans); err != nil {
				return fmt.Errorf("write spans: %w", err)
			}
			fmt.Fprintf(stdout, "spans: %d written to %s\n", len(s.spans), path)
		}
	}

	attempted, failed := 0, 0
	for _, sr := range r.runs {
		for _, fo := range sr.out {
			attempted++
			if fo.err != nil {
				failed++
			}
		}
	}
	printHost(stdout, wl, seed, seconds, trace, r)
	printTable(stdout, "end to end", e2e)
	printTable(stdout, "quality", quality)
	reported := e2e
	if trace {
		printTable(stdout, "per layer (traced run)", layers)
		reported = layers
	}
	if len(problems) > 0 {
		fmt.Fprintln(stdout, "correctness: FAILED")
		for _, p := range problems {
			fmt.Fprintln(stdout, "  "+p)
		}
	} else {
		fmt.Fprintln(stdout, "correctness: every frame matches the serial reference; ledger verifies")
	}
	if err := printResult(stdout, len(problems) == 0, attempted, failed, reported); err != nil {
		return err
	}
	if len(problems) > 0 {
		return fmt.Errorf("outputs incorrect: %s", problems[0])
	}
	return nil
}

// endToEnd computes the user-visible metrics from the untraced passes:
// each figure is computed per pass and the median over passes is
// reported, so a pass slowed by a noisy neighbour does not move it.
func endToEnd(r *runner, setupSecs []float64, peakRSS float64) []metric {
	var fps, p50, p95, cpu, allocs, kb []float64
	frames, failed, dropped, passes, minTailP := 0, 0, 0, 0, 100
	for _, p := range r.passes {
		if p.traced || p.open {
			continue
		}
		var lats []float64
		for _, sr := range p.runs {
			for _, fo := range sr.out {
				lats = append(lats, ms(fo.lat))
				if fo.err != nil {
					failed++
				} else if fo.res.VehicleDropped {
					dropped++
				}
			}
		}
		n := float64(len(lats))
		frames += len(lats)
		passes++
		if tp := tailPercentile(len(lats)); tp < minTailP {
			minTailP = tp
		}
		fps = append(fps, n/p.wall.Seconds())
		p50 = append(p50, percentile(lats, 50))
		p95 = append(p95, percentile(lats, 95))
		cpu = append(cpu, ms(p.cpu)/n)
		allocs = append(allocs, float64(p.mallocs)/n)
		kb = append(kb, float64(p.allocBytes)/1024/n)
	}
	served := ratio{Num: frames - failed, Den: frames}
	vehicleServed := ratio{Num: frames - dropped, Den: frames}
	perPass := fmt.Sprintf("median of %d passes, %d frames", passes, frames)
	p95note := fmt.Sprintf("%s; highest percentile with %d beyond in every pass: p%d", perPass, minTail, minTailP)
	if minTailP < 95 {
		p95note += " (too few frames for p95)"
	}
	return []metric{
		{"setup_s", "s", median(setupSecs), fmt.Sprintf("median of %d set-ups", len(setupSecs))},
		{"frames_per_s", "1/s", median(fps), perPass},
		{"frame_p50_ms", "ms", median(p50), perPass},
		{"frame_p95_ms", "ms", median(p95), p95note},
		{"cpu_ms_per_frame", "ms", median(cpu), perPass + "; user+system"},
		{"allocs_per_frame", "count", median(allocs), perPass},
		{"alloc_kb_per_frame", "KiB", median(kb), perPass},
		{"peak_rss_mb", "MiB", peakRSS, "includes the rendered frames"},
		{"served_share", "share", served.Value(), served.String() + " frames neither failed nor shed"},
		{"vehicle_served_share", "share", vehicleServed.Value(), vehicleServed.String() + " frames not lost to reconfiguration (simulated clock)"},
	}
}

// qualityMetrics matches each camera's detections from its first
// untraced stream run against the ground truth at IoU >= 0.5. A
// vehicle frame lost to reconfiguration counts its vehicles as missed.
func qualityMetrics(r *runner) []metric {
	var veh, ped advdet.Confusion
	seen := map[int]bool{}
	for _, sr := range r.runs {
		if sr.traced || seen[sr.cam] {
			continue
		}
		seen[sr.cam] = true
		for i, fo := range sr.out {
			sc := r.wl.cameras[sr.cam].frames[i]
			if fo.err != nil || fo.res.VehicleDropped {
				veh.FN += len(sc.Vehicles)
			} else {
				veh.Add(advdet.MatchBoxes(sc.Vehicles, boxes(fo.res.Vehicles), 0.5))
			}
			if fo.err != nil {
				ped.FN += len(sc.Pedestrians)
			} else {
				ped.Add(advdet.MatchBoxes(sc.Pedestrians, boxes(fo.res.Pedestrians), 0.5))
			}
		}
	}
	vr := ratio{Num: veh.TP, Den: veh.TP + veh.FN}
	vp := ratio{Num: veh.TP, Den: veh.TP + veh.FP}
	pr := ratio{Num: ped.TP, Den: ped.TP + ped.FN}
	return []metric{
		{"vehicle_recall", "share", vr.Value(), vr.String() + " true vehicles found"},
		{"vehicle_precision", "share", vp.Value(), vp.String() + " vehicle detections true"},
		{"pedestrian_recall", "share", pr.Value(), pr.String() + " true pedestrians found"},
	}
}

func boxes(dets []advdet.Detection) []advdet.Rect {
	out := make([]advdet.Rect, len(dets))
	for i, d := range dets {
		out[i] = d.Box
	}
	return out
}

// perLayer turns the traced samples into the per-layer metrics.
func perLayer(r *runner, s *layerSamples, quality []metric) []metric {
	var traced, untraced, open, late, reconfig []float64
	for _, p := range r.passes {
		for _, sr := range p.runs {
			for _, fo := range sr.out {
				switch {
				case p.open:
					open = append(open, ms(fo.lat))
					late = append(late, ms(fo.late))
				case p.traced:
					traced = append(traced, ms(fo.lat))
				default:
					untraced = append(untraced, ms(fo.lat))
				}
			}
			if p.traced {
				for _, rc := range sr.reconfigs {
					if rc.DonePS > rc.StartPS {
						reconfig = append(reconfig, float64(rc.DonePS-rc.StartPS)/1e9)
					}
				}
			}
		}
	}
	tracedP50, untracedP50 := percentile(traced, 50), percentile(untraced, 50)
	n := func(xs []float64) string { return fmt.Sprintf("n=%d", len(xs)) }
	out := []metric{
		{"fleet.queue_wait_p50_ms", "ms", median(s.queueWait), n(s.queueWait) + " Submit span minus ProcessFrameCtx span"},
		{"fleet.shed_share", "share", s.shed.Value(), s.shed.String() + " traced frames shed"},
		{"adaptive.self_p50_ms", "ms", median(s.self), n(s.self) + " ProcessFrameCtx minus replayed leaves"},
		{"pr.sim_reconfig_ms", "ms", median(reconfig), n(reconfig) + " simulated clock"},
		{"img.gray_ms", "ms", median(s.gray), n(s.gray)},
		{"pipeline.vehicle_scan_ms", "ms", median(s.vehicle), n(s.vehicle)},
		{"pipeline.vehicle_scan_allocs", "count", median(s.vehicleAllocs), n(s.vehicleAllocs)},
	}
	for _, st := range stageNames {
		out = append(out, metric{st, "ms", median(s.stages[st]), n(s.stages[st]) + " vehicle scan stage"})
	}
	out = append(out, []metric{
		{"pipeline.tile_hit_share", "share", s.tiles.Value(), s.tiles.String() + " tiles reused, vehicle and pedestrian scans"},
		{"pipeline.pedestrian_scan_ms", "ms", median(s.pedestrian), n(s.pedestrian)},
		{"pipeline.pedestrian_scan_allocs", "count", median(s.pedestrianAllocs), n(s.pedestrianAllocs)},
		{"pipeline.dark_ms", "ms", median(s.dark), n(s.dark)},
		{"pipeline.dark_allocs", "count", median(s.darkAllocs), n(s.darkAllocs)},
		{"img.dark_preprocess_ms", "ms", median(s.preprocess), n(s.preprocess)},
		{"dbn.scan_ms", "ms", median(s.dbn), n(s.dbn)},
		{"dbn.evaluated_share", "share", s.dbnEvaluated.Value(), s.dbnEvaluated.String() + " windows past the ROI gate"},
		{"pipeline.pair_ms", "ms", median(s.pair), n(s.pair) + " DetectCtx minus preprocess and DBN scan"},
		{"ledger.append_us", "us", median(s.appendUS), n(s.appendUS)},
		{"ledger.events_per_frame", "count", ratio{Num: s.events, Den: s.replayedFrames}.Value(), fmt.Sprintf("%d events over %d frames", s.events, s.replayedFrames)},
		{"loadgen.frame_p50_ms", "ms", percentile(open, 50), n(open) + " open-loop probe, timed from the due time"},
		{"loadgen.frame_p95_ms", "ms", percentile(open, 95), n(open) + " open-loop probe, timed from the due time"},
		{"loadgen.late_p95_ms", "ms", percentile(late, 95), n(late) + " how late the probe's generator sent frames"},
		{"traced.frame_p50_ms", "ms", tracedP50, n(traced)},
		{"traced.overhead_p50_ms", "ms", tracedP50 - untracedP50, fmt.Sprintf("traced p50 minus untraced p50 %.3f ms (n=%d)", untracedP50, len(untraced))},
	}...)
	return append(out, quality...)
}

func printHost(w io.Writer, wl *workload, seed uint64, seconds int, trace bool, r *runner) {
	// A closed loop offers no rate: a camera's next frame goes when the
	// last returns. The open-loop probe of a traced run offers
	// probe_fps per stream for probe_frames frames.
	type cam struct {
		Name        string  `json:"name"`
		Frames      int     `json:"frames_per_pass"`
		ProbeFrames int     `json:"probe_frames"`
		ProbeRate   float64 `json:"probe_fps"`
	}
	block := struct {
		NumCPU     int    `json:"num_cpu"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
		GOARCH     string `json:"goarch"`
		GOOS       string `json:"goos"`
		Workload   string `json:"workload"`
		Seed       uint64 `json:"seed"`
		Seconds    int    `json:"seconds"`
		Trace      bool   `json:"trace"`
		Passes     int    `json:"passes"`
		Cameras    []cam  `json:"cameras"`
	}{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, GOOS: runtime.GOOS,
		Workload: wl.name, Seed: seed, Seconds: seconds, Trace: trace,
		Passes: len(r.passes),
	}
	for _, c := range wl.cameras {
		block.Cameras = append(block.Cameras, cam{c.name, len(c.frames), len(c.due), wl.rate})
	}
	b, _ := json.Marshal(block) // a struct of plain fields always marshals
	fmt.Fprintf(w, "host: %s\n", b)
}

func printTable(w io.Writer, title string, metrics []metric) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, m := range metrics {
		fmt.Fprintf(w, "  %-32s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
}

// printResult writes the final JSON line.
func printResult(w io.Writer, correct bool, attempted, failed int, metrics []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, m := range metrics {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSS is the process's peak resident set in MiB.
func maxRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
