// Command benchrepro regenerates every table and figure of the
// paper's evaluation and prints the measured rows next to the
// published ones.
//
// Usage:
//
//	benchrepro [-table1] [-table2] [-reconfig] [-dark] [-fps] [-fleet]
//	           [-all] [-quick] [-json file] [-uhd]
//
// With no selection flags, -all is assumed. -quick shrinks the
// Table I datasets (for CI-speed runs). -json runs the timing-mode
// performance benchmark plus the fleet capacity experiment (fast, no
// training) and writes the schema-stable advdet-bench/v1 report
// (e.g. BENCH_pr10.json) to the given file; combine with other flags
// to also run those sections. -uhd additionally measures the temporal
// scan cache at 3840x2160 for the report's uhd row. -fleet runs the
// multi-stream capacity experiment alone, with
// -fleet-streams/-fleet-frames to scale it.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"advdet/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchrepro: ")

	t1 := flag.Bool("table1", false, "reproduce Table I (model x test accuracy)")
	t2 := flag.Bool("table2", false, "reproduce Table II (resource utilization)")
	rc := flag.Bool("reconfig", false, "reproduce §IV-A reconfiguration throughputs and §IV-B latency")
	dk := flag.Bool("dark", false, "reproduce §III-B dark-pipeline accuracy")
	fp := flag.Bool("fps", false, "reproduce §V frame rate")
	bl := flag.Bool("baselines", false, "run related-work baselines (Haar/AdaBoost, PIHOG, tracking)")
	sw := flag.Bool("sweep", false, "luminance-threshold sensitivity sweep for the dark pipeline")
	av := flag.Bool("adaptive", false, "system-level adaptive vs fixed-pipeline comparison")
	fl := flag.Bool("fleet", false, "fleet capacity: N concurrent streams over one shared engine")
	flStreams := flag.Int("fleet-streams", 0, "fleet experiment stream count (default 8)")
	flFrames := flag.Int("fleet-frames", 0, "fleet experiment frames per stream (default 30)")
	all := flag.Bool("all", false, "run everything")
	quick := flag.Bool("quick", false, "smaller Table I datasets")
	jsonOut := flag.String("json", "", "write the machine-readable advdet-bench/v1 performance report (e.g. BENCH_pr10.json) to this file")
	uhd := flag.Bool("uhd", false, "with -json, add the 3840x2160 temporal-cache cold/warm row (slow: UHD frames)")
	flag.Parse()

	if !(*t1 || *t2 || *rc || *dk || *fp || *bl || *sw || *av || *fl || *jsonOut != "") {
		*all = true
	}

	if *jsonOut != "" {
		rep, err := experiments.PerfBench()
		if err != nil {
			log.Fatal(err)
		}
		if *uhd {
			u, err := experiments.TemporalBench(3840, 2160, 4)
			if err != nil {
				log.Fatal(err)
			}
			rep.UHD = &u
		}
		experiments.WritePerf(os.Stdout, rep)
		f, err := os.Create(*jsonOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.WritePerfJSON(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("performance report written to %s\n\n", *jsonOut)
	}

	if *all || *t1 {
		opt := experiments.DefaultTableIOptions()
		if *quick {
			opt.TrainN = 100
			opt.PaperCounts = false
		}
		fmt.Printf("training 3 SVM models on %d crops/class and evaluating...\n", opt.TrainN)
		rows, err := experiments.TableI(opt)
		if err != nil {
			log.Fatal(err)
		}
		experiments.WriteTableI(os.Stdout, rows)
		if errs := experiments.TableIShapeErrors(rows); len(errs) > 0 {
			fmt.Println("  SHAPE VIOLATIONS:")
			for _, e := range errs {
				fmt.Println("   -", e)
			}
		} else {
			fmt.Println("  all Table I qualitative claims hold.")
		}
		fmt.Println()
	}

	if *all || *t2 {
		experiments.WriteTableII(os.Stdout)
		fmt.Println()
	}

	if *all || *rc {
		results, err := experiments.ReconfigComparison()
		if err != nil {
			log.Fatal(err)
		}
		experiments.WriteReconfig(os.Stdout, results)
		ms, dropped, err := experiments.TransitionCost()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("§IV-B — dusk->dark transition: reconfiguration %.2f ms, "+
			"%d vehicle frame(s) dropped at 50 fps (paper: 20 ms, 1 frame)\n\n", ms, dropped)
	}

	if *all || *dk {
		n := 100
		if *quick {
			n = 30
		}
		fmt.Printf("training the dark pipeline and evaluating on %d+%d very dark crops...\n", n, n)
		c, err := experiments.DarkAccuracy(21, n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("§III-B — dark pipeline on very dark subset: %s (paper: 95%% accuracy)\n\n", c)
	}

	if *all || *fp {
		fmt.Printf("§V — modeled detection pipeline at 125 MHz, 1920x1080: %.1f fps (paper: 50 fps)\n\n",
			experiments.FrameRate())
	}

	// The fleet section reruns the experiment only when -json didn't
	// already include it or the caller rescaled it.
	if (*all || *fl) && (*jsonOut == "" || *flStreams > 0 || *flFrames > 0) {
		opt := experiments.DefaultFleetOptions()
		if *flStreams > 0 {
			opt.Streams = *flStreams
		}
		if *flFrames > 0 {
			opt.FramesPerStream = *flFrames
		}
		rep, err := experiments.FleetBench(opt)
		if err != nil {
			log.Fatal(err)
		}
		experiments.WriteFleet(os.Stdout, rep)
		fmt.Println()
	}

	if *all || *bl {
		fmt.Println("related-work baselines:")
		dbnC, haarC, err := experiments.BaselineDark(41, 40)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  dark detection:   DBN pipeline %s\n", dbnC)
		fmt.Printf("                    Haar+AdaBoost baseline [11] %s\n", haarC)
		hogC, piC, err := experiments.FeatureComparison(43, 80, 60)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  dusk features:    HOG %s\n", hogC)
		fmt.Printf("                    PIHOG [8] %s\n", piC)
		detR, trkR, err := experiments.TrackingGain(45, 40)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  night drive:      per-frame detector recall %.1f%%, with tracking %.1f%%\n",
			100*detR, 100*trkR)
		fmt.Println()
	}

	if *all || *sw {
		fmt.Println("dark-pipeline luminance-threshold sweep (accuracy vs threshold):")
		points, err := experiments.LumaThreshSweep(47, 25,
			[]uint8{40, 60, 80, 90, 110, 140, 180, 220})
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range points {
			bar := ""
			for i := 0; i < int(p.Acc.Accuracy()*40); i++ {
				bar += "#"
			}
			fmt.Printf("  thresh %3.0f: %6.2f%%  %s\n", p.Param, 100*p.Acc.Accuracy(), bar)
		}
		fmt.Println()
	}

	if *all || *av {
		fmt.Println("training detectors for the adaptive-vs-fixed comparison...")
		rows, err := experiments.AdaptiveVsFixed(61, 8)
		if err != nil {
			log.Fatal(err)
		}
		experiments.WriteAdaptiveVsFixed(os.Stdout, rows)
	}
}
