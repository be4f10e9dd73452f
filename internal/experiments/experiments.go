// Package experiments regenerates every quantitative result of the
// paper — Table I, Table II, the §IV-A reconfiguration throughputs,
// the §IV-B reconfiguration latency and the §V frame rate — from the
// library's components. It is shared by cmd/benchrepro and the
// benchmark harness so both report identical rows.
package experiments

import (
	"fmt"
	"io"

	"advdet/internal/adaptive"
	"advdet/internal/dbn"
	"advdet/internal/eval"
	"advdet/internal/fixed"
	"advdet/internal/fpga"
	"advdet/internal/haar"
	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/pipeline"
	"advdet/internal/pr"
	"advdet/internal/soc"
	"advdet/internal/svm"
	"advdet/internal/synth"
	"advdet/internal/track"
)

// TableIRow is one (model, test) cell group of Table I.
type TableIRow struct {
	Model string // "day", "dusk", "combined"
	Test  string // "day", "dusk", "dusk-subset"
	Got   eval.Confusion
	Paper eval.Confusion
}

// PaperTableI holds the published confusion counts.
var PaperTableI = map[[2]string]eval.Confusion{
	{"day", "day"}:              {TP: 195, TN: 21, FP: 4, FN: 5},
	{"day", "dusk"}:             {TP: 659, TN: 680, FP: 72, FN: 404},
	{"day", "dusk-subset"}:      {TP: 650, TN: 680, FP: 72, FN: 313},
	{"dusk", "day"}:             {TP: 23, TN: 24, FP: 1, FN: 177},
	{"dusk", "dusk"}:            {TP: 744, TN: 751, FP: 1, FN: 319},
	{"dusk", "dusk-subset"}:     {TP: 739, TN: 751, FP: 1, FN: 224},
	{"combined", "day"}:         {TP: 185, TN: 21, FP: 4, FN: 15},
	{"combined", "dusk"}:        {TP: 809, TN: 740, FP: 12, FN: 254},
	{"combined", "dusk-subset"}: {TP: 805, TN: 740, FP: 12, FN: 158},
}

// TableIOptions sizes the Table I reproduction.
type TableIOptions struct {
	Seed   uint64
	TrainN int // training crops per class per dataset
	// PaperCounts uses the paper's exact test-set sizes (200/25 day,
	// 1063/752 dusk); when false, a reduced 1/4-size test set is used.
	PaperCounts bool
}

// DefaultTableIOptions reproduces the full-size Table I.
func DefaultTableIOptions() TableIOptions {
	return TableIOptions{Seed: 11, TrainN: 300, PaperCounts: true}
}

// TableI trains the day, dusk and combined models and evaluates all
// three on the day test set, the dusk test set and the dusk subset
// without very dark images, mirroring the paper's table layout.
func TableI(o TableIOptions) ([]TableIRow, error) {
	hogCfg := hog.DefaultConfig()
	svmOpts := svm.DefaultOptions()

	dayTrain := synth.DayDataset(o.Seed, 64, 64, o.TrainN, o.TrainN)
	duskTrain := synth.DuskDataset(o.Seed+1, 64, 64, o.TrainN, o.TrainN, 0)
	combTrain := pipeline.CombineDatasets("combined", dayTrain, duskTrain)

	models := []struct {
		name string
		ds   *synth.Dataset
	}{
		{"day", dayTrain},
		{"dusk", duskTrain},
		{"combined", combTrain},
	}

	var dayTest, duskTest *synth.Dataset
	if o.PaperCounts {
		dayTest = synth.TableIDayTest(o.Seed+2, 64, 64)
		duskTest = synth.TableIDuskTest(o.Seed+3, 64, 64)
	} else {
		dayTest = synth.DayDataset(o.Seed+2, 64, 64, 50, 12)
		duskTest = synth.DuskDataset(o.Seed+3, 64, 64, 266, 188, 0.094)
	}
	subTest := duskTest.SubsetWithoutVeryDark()

	var rows []TableIRow
	for _, m := range models {
		model, err := pipeline.TrainCropSVM(m.ds, hogCfg, pipeline.VehicleWindow, pipeline.VehicleWindow, svmOpts)
		if err != nil {
			return nil, fmt.Errorf("experiments: table I %s model: %w", m.name, err)
		}
		det := pipeline.NewDayDuskDetector(model)
		for _, tc := range []struct {
			name string
			ds   *synth.Dataset
		}{
			{"day", dayTest}, {"dusk", duskTest}, {"dusk-subset", subTest},
		} {
			c := eval.EvaluateCrops(det.ClassifyCrop, tc.ds.Pos, tc.ds.Neg)
			rows = append(rows, TableIRow{
				Model: m.name,
				Test:  tc.name,
				Got:   c,
				Paper: PaperTableI[[2]string{m.name, tc.name}],
			})
		}
	}
	return rows, nil
}

// WriteTableI prints the reproduction next to the paper's numbers.
func WriteTableI(w io.Writer, rows []TableIRow) {
	fmt.Fprintln(w, "Table I — detection accuracy by SVM model and test scenario")
	fmt.Fprintf(w, "  %-9s %-12s | %-34s | %s\n", "model", "test", "measured", "paper")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-9s %-12s | %-34s | %s\n", r.Model, r.Test, r.Got, r.Paper)
	}
}

// TableIShapeErrors verifies the qualitative claims of Table I on the
// measured rows and returns a description of each violation.
func TableIShapeErrors(rows []TableIRow) []string {
	acc := map[[2]string]eval.Confusion{}
	for _, r := range rows {
		acc[[2]string{r.Model, r.Test}] = r.Got
	}
	var errs []string
	check := func(ok bool, msg string) {
		if !ok {
			errs = append(errs, msg)
		}
	}
	check(acc[[2]string{"day", "day"}].Accuracy() > acc[[2]string{"dusk", "day"}].Accuracy(),
		"day model should beat dusk model on day test")
	check(acc[[2]string{"day", "day"}].Accuracy() > acc[[2]string{"combined", "day"}].Accuracy()-0.02,
		"day model should (about) match or beat combined on day test")
	dayOnDusk := acc[[2]string{"day", "dusk"}]
	duskOnDusk := acc[[2]string{"dusk", "dusk"}]
	combOnDusk := acc[[2]string{"combined", "dusk"}]
	check(duskOnDusk.Accuracy() > dayOnDusk.Accuracy(), "dusk model should beat day model on dusk test")
	check(combOnDusk.Accuracy() > duskOnDusk.Accuracy()-0.05, "combined should be competitive on dusk test")
	duskOnDay := acc[[2]string{"dusk", "day"}]
	check(duskOnDay.FN > duskOnDay.TP, "dusk model should miss most day positives")
	for _, m := range []string{"day", "dusk", "combined"} {
		full := acc[[2]string{m, "dusk"}]
		sub := acc[[2]string{m, "dusk-subset"}]
		check(sub.Accuracy() >= full.Accuracy(),
			m+" model: excluding very dark images should not reduce accuracy")
	}
	return errs
}

// TableIIRows returns the measured and published Table II.
func TableIIRows() (got, paper []fpga.UtilRow) {
	return fpga.TableII(), fpga.PaperTableII
}

// WriteTableII prints resource utilization vs the paper.
func WriteTableII(w io.Writer) {
	got, paper := TableIIRows()
	fmt.Fprintln(w, "Table II — resource utilization (% LUT / FF / BRAM / DSP)")
	fmt.Fprintf(w, "  %-26s | %-28s | %s\n", "design", "measured", "paper")
	for i, r := range got {
		fmt.Fprintf(w, "  %-26s | %5.1f %5.1f %5.1f %5.1f      | %3.0f %3.0f %3.0f %3.0f\n",
			r.Name, r.Util[0], r.Util[1], r.Util[2], r.Util[3],
			paper[i].Util[0], paper[i].Util[1], paper[i].Util[2], paper[i].Util[3])
	}
}

// PaperThroughputs are the §IV-A reference numbers in MB/s.
var PaperThroughputs = map[string]float64{
	"axi-hwicap": 19,
	"pcap":       145,
	"zycap":      382,
	"dma-icap":   390,
}

// ReconfigComparison measures all controllers on one partial
// bitstream. The model is deterministic, so one run per controller is
// the measurement.
func ReconfigComparison() ([]pr.Result, error) {
	bytes := fpga.DefaultFloorplan().PartialBitstreamBytes()
	var out []pr.Result
	for _, ctrl := range pr.All() {
		res, err := pr.Measure(ctrl, bytes)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// WriteReconfig prints the §IV-A comparison.
func WriteReconfig(w io.Writer, results []pr.Result) {
	fmt.Fprintln(w, "§IV-A — reconfiguration throughput (8 MB partial bitstream)")
	fmt.Fprintf(w, "  %-12s %12s %10s | %8s\n", "controller", "measured MB/s", "time ms", "paper")
	var pcap, ours float64
	for _, r := range results {
		fmt.Fprintf(w, "  %-12s %13.1f %10.2f | %8.0f\n",
			r.Controller, r.MBPerSec, soc.Seconds(r.PS)*1e3, PaperThroughputs[r.Controller])
		switch r.Controller {
		case "pcap":
			pcap = r.MBPerSec
		case "dma-icap":
			ours = r.MBPerSec
		}
	}
	if pcap > 0 {
		fmt.Fprintf(w, "  speedup dma-icap/pcap: %.2fx (paper: >2.6x)\n", ours/pcap)
	}
}

// DarkAccuracy evaluates the trained dark pipeline on a very dark crop
// set (§III-B reports 95%% on the SYSU subset).
func DarkAccuracy(seed uint64, n int) (eval.Confusion, error) {
	cfg := pipeline.DefaultDarkConfig()
	cfg.Downsample = 1 // crops are already at the pipeline's working scale
	dbnCfg := dbn.DefaultConfig()
	det, err := pipeline.TrainDarkDetector(seed, cfg, dbnCfg, 200)
	if err != nil {
		return eval.Confusion{}, err
	}
	ds := synth.NewDarkDataset(seed+1, 96, 96, n, n)
	var c eval.Confusion
	for _, p := range ds.Pos {
		c.Record(true, det.ClassifyCrop(p))
	}
	for _, neg := range ds.Neg {
		c.Record(false, det.ClassifyCrop(neg))
	}
	return c, nil
}

// FrameRate reports the modeled pipeline frame rate at 1080p (§V
// claims 50 fps at 125 MHz).
func FrameRate() float64 {
	return soc.NewDetectionPipeline("vehicle").FPS(1920, 1080)
}

// BaselineDark compares the paper's DBN dark pipeline against a
// VeDANt-style AdaBoost+Haar baseline (related work [11]) on the same
// very dark crop set. The paper's argument is that its learned
// two-stage pipeline beats simpler nighttime classifiers; this makes
// that comparison concrete.
func BaselineDark(seed uint64, n int) (dbnAcc, haarAcc eval.Confusion, err error) {
	cfg := pipeline.DefaultDarkConfig()
	cfg.Downsample = 1
	dbnCfg := dbn.DefaultConfig()
	dbnCfg.PretrainOpts.Epochs = 5
	det, err := pipeline.TrainDarkDetector(seed, cfg, dbnCfg, 150)
	if err != nil {
		return dbnAcc, haarAcc, err
	}

	// Train the Haar baseline on gray versions of dark crops.
	trainDS := synth.NewDarkDataset(seed+1, 64, 64, 80, 80)
	var pos, neg []*img.Gray
	for _, p := range trainDS.Pos {
		pos = append(pos, img.RGBToGray(p))
	}
	for _, m := range trainDS.Neg {
		neg = append(neg, img.RGBToGray(m))
	}
	hOpts := haar.DefaultTrainOptions()
	hOpts.Rounds = 40
	hc, err := haar.Train(pos, neg, hOpts)
	if err != nil {
		return dbnAcc, haarAcc, err
	}

	testDS := synth.NewDarkDataset(seed+2, 96, 96, n, n)
	for _, p := range testDS.Pos {
		dbnAcc.Record(true, det.ClassifyCrop(p))
		haarAcc.Record(true, hc.Classify(img.RGBToGray(p)))
	}
	for _, m := range testDS.Neg {
		dbnAcc.Record(false, det.ClassifyCrop(m))
		haarAcc.Record(false, hc.Classify(img.RGBToGray(m)))
	}
	return dbnAcc, haarAcc, nil
}

// FeatureComparison trains HOG and PIHOG vehicle models on the same
// dusk data and evaluates both: PIHOG's intensity/position channels
// (Kim et al., related work [8]) are most useful exactly where the
// paper operates — low light, where absolute lamp brightness carries
// signal plain HOG normalizes away.
func FeatureComparison(seed uint64, trainN, testN int) (hogAcc, pihogAcc eval.Confusion, err error) {
	train := synth.DuskDataset(seed, 64, 64, trainN, trainN, 0)
	test := synth.DuskDataset(seed+1, 64, 64, testN, testN, 0)

	opts := svm.DefaultOptions()
	hogCfg := hog.DefaultConfig()
	hm, err := pipeline.TrainCropSVM(train, hogCfg, 64, 64, opts)
	if err != nil {
		return hogAcc, pihogAcc, err
	}
	pCfg := hog.DefaultPIHOG()
	pm, err := pipeline.TrainCropSVM(train, pCfg, 64, 64, opts)
	if err != nil {
		return hogAcc, pihogAcc, err
	}

	classify := func(m *svm.Model, fx pipeline.FeatureExtractor, g *img.Gray) bool {
		if g.W != 64 || g.H != 64 {
			g = img.ResizeGray(g, 64, 64)
		}
		return m.Margin(fx.Extract(g)) > 0
	}
	for _, p := range test.Pos {
		hogAcc.Record(true, classify(hm, hogCfg, p))
		pihogAcc.Record(true, classify(pm, pCfg, p))
	}
	for _, n := range test.Neg {
		hogAcc.Record(false, classify(hm, hogCfg, n))
		pihogAcc.Record(false, classify(pm, pCfg, n))
	}
	return hogAcc, pihogAcc, nil
}

// AdaptiveVsFixedRow is scene-level vehicle recall for one strategy
// over the mixed drive.
type AdaptiveVsFixedRow struct {
	Strategy                 string
	Day, Dusk, Dark, Overall float64 // recall per condition segment
}

// AdaptiveVsFixed runs the paper's headline comparison at system
// level: vehicle recall on a drive spanning all three conditions,
// with (a) the adaptive system and (b) each single pipeline used for
// the whole drive. The adaptive system should be near the best fixed
// strategy in every segment, while each fixed strategy collapses
// somewhere.
func AdaptiveVsFixed(seed uint64, framesPerCond int) ([]AdaptiveVsFixedRow, error) {
	// Train one detector bundle.
	hogCfg := hog.DefaultConfig()
	opts := svm.DefaultOptions()
	dayModel, err := pipeline.TrainCropSVM(synth.DayDataset(seed, 64, 64, 80, 80), hogCfg, pipeline.VehicleWindow, pipeline.VehicleWindow, opts)
	if err != nil {
		return nil, err
	}
	duskModel, err := pipeline.TrainCropSVM(synth.DuskDataset(seed+1, 64, 64, 80, 80, 0), hogCfg, pipeline.VehicleWindow, pipeline.VehicleWindow, opts)
	if err != nil {
		return nil, err
	}
	darkCfg := pipeline.DefaultDarkConfig()
	dbnCfg := dbn.DefaultConfig()
	dbnCfg.PretrainOpts.Epochs = 4
	dbnCfg.FineTuneIter = 30
	darkDet, err := pipeline.TrainDarkDetector(seed+2, darkCfg, dbnCfg, 120)
	if err != nil {
		return nil, err
	}
	dayDet := pipeline.NewDayDuskDetector(dayModel)
	duskDet := pipeline.NewDayDuskDetector(duskModel)

	conds := []synth.Condition{synth.Day, synth.Dusk, synth.Dark}
	type strategy struct {
		name   string
		detect func(sc *synth.Scene, cond synth.Condition) []pipeline.Detection
	}
	strategies := []strategy{
		{"adaptive", func(sc *synth.Scene, cond synth.Condition) []pipeline.Detection {
			switch cond {
			case synth.Day:
				return dayDet.Detect(img.RGBToGray(sc.Frame))
			case synth.Dusk:
				return duskDet.Detect(img.RGBToGray(sc.Frame))
			default:
				return darkDet.Detect(sc.Frame)
			}
		}},
		{"day-only", func(sc *synth.Scene, _ synth.Condition) []pipeline.Detection {
			return dayDet.Detect(img.RGBToGray(sc.Frame))
		}},
		{"dusk-only", func(sc *synth.Scene, _ synth.Condition) []pipeline.Detection {
			return duskDet.Detect(img.RGBToGray(sc.Frame))
		}},
		{"dark-only", func(sc *synth.Scene, _ synth.Condition) []pipeline.Detection {
			return darkDet.Detect(sc.Frame)
		}},
	}

	var rows []AdaptiveVsFixedRow
	for _, st := range strategies {
		row := AdaptiveVsFixedRow{Strategy: st.name}
		totalHit, totalGT := 0, 0
		for ci, cond := range conds {
			drive := synth.NewDrive(seed+10+uint64(ci), 640, 360, cond, 2, 0)
			hit, gt := 0, 0
			for f := 0; f < framesPerCond; f++ {
				sc := drive.Frame(f * 3)
				dets := st.detect(sc, cond)
				for _, t := range sc.Vehicles {
					gt++
					for _, d := range dets {
						if d.Box.IoU(t) > 0.1 {
							hit++
							break
						}
					}
				}
			}
			recall := 0.0
			if gt > 0 {
				recall = float64(hit) / float64(gt)
			}
			switch cond {
			case synth.Day:
				row.Day = recall
			case synth.Dusk:
				row.Dusk = recall
			default:
				row.Dark = recall
			}
			totalHit += hit
			totalGT += gt
		}
		if totalGT > 0 {
			row.Overall = float64(totalHit) / float64(totalGT)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteAdaptiveVsFixed prints the comparison.
func WriteAdaptiveVsFixed(w io.Writer, rows []AdaptiveVsFixedRow) {
	fmt.Fprintln(w, "system-level vehicle recall by strategy (drive spans day/dusk/dark):")
	fmt.Fprintf(w, "  %-10s %6s %6s %6s | %s\n", "strategy", "day", "dusk", "dark", "overall")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %5.0f%% %5.0f%% %5.0f%% | %5.0f%%\n",
			r.Strategy, 100*r.Day, 100*r.Dusk, 100*r.Dark, 100*r.Overall)
	}
}

// QuantizationResult compares the float reference datapath with the
// Q16.16 fixed-point datapath the PL actually computes in.
type QuantizationResult struct {
	FloatAcc     eval.Confusion
	FixedAcc     eval.Confusion
	MaxMarginErr float64 // worst |float margin - fixed margin|
	Disagreement int     // crops where the two datapaths decide differently
}

// QuantizationLoss trains a dusk vehicle model, then classifies a test
// set twice: with float64 arithmetic and with the Q16.16 dot product
// and quantized weights of the hardware SVM stage. The paper's
// hardware matches its software model because this loss is negligible;
// the experiment verifies that premise holds for these datapaths.
func QuantizationLoss(seed uint64, trainN, testN int) (QuantizationResult, error) {
	var res QuantizationResult
	train := synth.DuskDataset(seed, 64, 64, trainN, trainN, 0)
	test := synth.DuskDataset(seed+1, 64, 64, testN, testN, 0)
	hogCfg := hog.DefaultConfig()
	m, err := pipeline.TrainCropSVM(train, hogCfg, pipeline.VehicleWindow, pipeline.VehicleWindow, svm.DefaultOptions())
	if err != nil {
		return res, err
	}
	wq := fixed.QuantizeVec(m.W)
	bq := fixed.FromFloat(m.Bias)

	classify := func(g *img.Gray) (floatPos, fixedPos bool, err64 float64) {
		if g.W != 64 || g.H != 64 {
			g = img.ResizeGray(g, 64, 64)
		}
		feat := hogCfg.Extract(g)
		fm := m.Margin(feat)
		qm := fixed.Dot(fixed.QuantizeVec(feat), wq).Add(bq).Float()
		return fm > 0, qm > 0, fm - qm
	}
	record := func(crops []*img.Gray, truth bool) {
		for _, g := range crops {
			fp, qp, e := classify(g)
			res.FloatAcc.Record(truth, fp)
			res.FixedAcc.Record(truth, qp)
			if e < 0 {
				e = -e
			}
			if e > res.MaxMarginErr {
				res.MaxMarginErr = e
			}
			if fp != qp {
				res.Disagreement++
			}
		}
	}
	record(test.Pos, true)
	record(test.Neg, false)
	return res, nil
}

// SweepPoint is one point of a parameter-sensitivity sweep.
type SweepPoint struct {
	Param float64
	Acc   eval.Confusion
}

// LumaThreshSweep trains the dark pipeline once and evaluates its crop
// accuracy across luminance thresholds — the sensitivity analysis
// behind the paper's fixed operating point. Too low floods the DBN
// with background; too high erases far lamps.
func LumaThreshSweep(seed uint64, n int, thresholds []uint8) ([]SweepPoint, error) {
	cfg := pipeline.DefaultDarkConfig()
	cfg.Downsample = 1
	dbnCfg := dbn.DefaultConfig()
	dbnCfg.PretrainOpts.Epochs = 4
	dbnCfg.FineTuneIter = 30
	det, err := pipeline.TrainDarkDetector(seed, cfg, dbnCfg, 120)
	if err != nil {
		return nil, err
	}
	ds := synth.NewDarkDataset(seed+1, 96, 96, n, n)
	var out []SweepPoint
	for _, th := range thresholds {
		d := *det
		d.Cfg.LumaThresh = th
		var c eval.Confusion
		for _, p := range ds.Pos {
			c.Record(true, d.ClassifyCrop(p))
		}
		for _, neg := range ds.Neg {
			c.Record(false, d.ClassifyCrop(neg))
		}
		out = append(out, SweepPoint{Param: float64(th), Acc: c})
	}
	return out, nil
}

// TrackingGain measures scene-level vehicle recall on a coherent dark
// drive with per-frame detection alone vs detection+tracking (track
// boxes count when detections drop out) — the value of the tracking
// layer the related work ([3], [5], [6]) builds around detectors.
func TrackingGain(seed uint64, frames int) (detRecall, trackRecall float64, err error) {
	cfg := pipeline.DefaultDarkConfig()
	dbnCfg := dbn.DefaultConfig()
	dbnCfg.PretrainOpts.Epochs = 4
	dbnCfg.FineTuneIter = 30
	det, err := pipeline.TrainDarkDetector(seed, cfg, dbnCfg, 120)
	if err != nil {
		return 0, 0, err
	}
	drive := synth.NewDrive(seed+1, 640, 360, synth.Dark, 2, 0)
	tracker := track.NewTracker(track.DefaultConfig())

	// Tracks need ConfirmHits frames to confirm; recall is measured in
	// steady state, after the burn-in.
	burnIn := track.DefaultConfig().ConfirmHits + 1

	var detHit, trackHit, total int
	for i := 0; i < frames; i++ {
		sc := drive.Frame(i)
		dets := det.Detect(sc.Frame)
		tracker.Update(dets)
		if i < burnIn {
			continue
		}
		var trackBoxes []img.Rect
		for _, t := range tracker.Confirmed() {
			trackBoxes = append(trackBoxes, t.Box())
		}
		for _, gt := range sc.Vehicles {
			total++
			for _, d := range dets {
				if d.Box.IoU(gt) > 0.1 {
					detHit++
					break
				}
			}
			for _, b := range trackBoxes {
				if b.IoU(gt) > 0.1 {
					trackHit++
					break
				}
			}
		}
	}
	if total == 0 {
		return 0, 0, fmt.Errorf("experiments: drive produced no ground truth")
	}
	return float64(detHit) / float64(total), float64(trackHit) / float64(total), nil
}

// TransitionCost runs the dusk->dark transition on the adaptive
// system (timing mode) and reports reconfiguration time in ms and
// vehicle frames dropped — the §IV-B result.
func TransitionCost() (ms float64, dropped int, err error) {
	opt := adaptive.DefaultOptions()
	opt.Initial = synth.Dusk
	opt.RunDetectors = false
	sys, err := adaptive.NewEngine(adaptive.Detectors{}, adaptive.EngineConfig{}).NewSystem(opt)
	if err != nil {
		return 0, 0, err
	}
	rng := synth.NewRNG(3)
	mkScene := func(cond synth.Condition, lux float64) *synth.Scene {
		sc := synth.RenderScene(rng.Split(), synth.SceneConfig{W: 64, H: 36, Cond: cond})
		sc.Lux = lux
		return sc
	}
	for i := 0; i < 5; i++ {
		if _, err := sys.ProcessFrame(mkScene(synth.Dusk, 300)); err != nil {
			return 0, 0, err
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := sys.ProcessFrame(mkScene(synth.Dark, 5)); err != nil {
			return 0, 0, err
		}
	}
	st := sys.Stats()
	if len(st.Reconfigs) != 1 || st.Reconfigs[0].DonePS == 0 {
		return 0, 0, fmt.Errorf("experiments: expected one completed reconfiguration, got %d", len(st.Reconfigs))
	}
	r := st.Reconfigs[0]
	return soc.Seconds(r.DonePS-r.StartPS) * 1e3, st.VehicleDropped, nil
}
