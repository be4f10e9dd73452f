package advdet

import (
	"advdet/internal/dbn"
	"advdet/internal/hog"
	"advdet/internal/pipeline"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

// Quality selects a training budget.
type Quality int

const (
	// Fast trains on small synthetic sets — seconds, good enough for
	// examples and smoke tests.
	Fast Quality = iota
	// Full trains on the Table I-scale sets the benchmarks use.
	Full
)

// trainConfig is the resolved training budget. Zero DBN fields mean
// "keep dbn.DefaultConfig()".
type trainConfig struct {
	cropsPerClass int
	darkWindows   int
	dbnEpochs     int
	dbnFineTune   int
}

func (q Quality) config() trainConfig {
	if q == Full {
		return trainConfig{cropsPerClass: 300, darkWindows: 250}
	}
	return trainConfig{cropsPerClass: 80, darkWindows: 100, dbnEpochs: 4, dbnFineTune: 30}
}

// TrainOption adjusts one axis of the training budget on top of the
// Fast defaults.
type TrainOption func(*trainConfig)

// WithQuality resets every budget axis to a preset; combine with the
// finer-grained options below to deviate from it.
func WithQuality(q Quality) TrainOption {
	return func(c *trainConfig) { *c = q.config() }
}

// WithCropsPerClass sets how many positive and negative crops each
// HOG+SVM model (day, dusk, pedestrian) trains on.
func WithCropsPerClass(n int) TrainOption {
	return func(c *trainConfig) { c.cropsPerClass = n }
}

// WithDarkWindows sets how many taillight windows the dark pipeline's
// DBN and pair SVM train on.
func WithDarkWindows(n int) TrainOption {
	return func(c *trainConfig) { c.darkWindows = n }
}

// WithDBNEpochs sets the per-RBM contrastive-divergence epochs for
// DBN pre-training (0 keeps the dbn package default).
func WithDBNEpochs(n int) TrainOption {
	return func(c *trainConfig) { c.dbnEpochs = n }
}

// WithDBNFineTune sets the supervised fine-tuning iteration count
// (0 keeps the dbn package default).
func WithDBNFineTune(n int) TrainOption {
	return func(c *trainConfig) { c.dbnFineTune = n }
}

// TrainDetectors trains every model the adaptive system needs from
// synthetic data at a preset quality. It is shorthand for
// TrainDetectorsOpts(seed, WithQuality(q)).
func TrainDetectors(seed uint64, q Quality) (Detectors, error) {
	return TrainDetectorsOpts(seed, WithQuality(q))
}

// TrainDetectorsOpts trains every model the adaptive system needs
// from synthetic data: the day and dusk HOG+SVM vehicle models, the
// pedestrian model (mixed conditions, as the static path runs day and
// night), and the dark pipeline's DBN and pair SVM. Options refine
// the Fast budget; start with WithQuality to pick another preset.
//
// The returned Detectors uses the day model for day and the dusk
// model for dusk, mirroring the paper's two-models-in-BRAM design.
//
// Trained detectors are immutable at inference time: train once, then
// share one Detectors across every stream of an Engine (NewEngine) or
// across any number of Systems. Scan scratch is pooled per process,
// not per model, so sharing adds no memory.
func TrainDetectorsOpts(seed uint64, opts ...TrainOption) (Detectors, error) {
	cfg := Fast.config()
	for _, o := range opts {
		o(&cfg)
	}
	nTrain, nWin := cfg.cropsPerClass, cfg.darkWindows

	hogCfg := hog.DefaultConfig()
	svmOpts := svm.DefaultOptions()

	dayDS := synth.DayDataset(seed, 64, 64, nTrain, nTrain)
	duskDS := synth.DuskDataset(seed+1, 64, 64, nTrain, nTrain, 0)

	dayModel, err := pipeline.TrainCropSVM(dayDS, hogCfg, pipeline.VehicleWindow, pipeline.VehicleWindow, svmOpts)
	if err != nil {
		return Detectors{}, err
	}
	duskModel, err := pipeline.TrainCropSVM(duskDS, hogCfg, pipeline.VehicleWindow, pipeline.VehicleWindow, svmOpts)
	if err != nil {
		return Detectors{}, err
	}

	pedDay := synth.PedestrianDataset(seed+2, pipeline.PedWindowW, pipeline.PedWindowH, nTrain*5/8, nTrain*5/8, synth.Day)
	pedDusk := synth.PedestrianDataset(seed+3, pipeline.PedWindowW, pipeline.PedWindowH, nTrain*3/8, nTrain*3/8, synth.Dusk)
	pedDark := synth.PedestrianDataset(seed+4, pipeline.PedWindowW, pipeline.PedWindowH, nTrain*3/8, nTrain*3/8, synth.Dark)
	pedAll := pipeline.CombineDatasets("ped-all",
		pipeline.CombineDatasets("ped-dd", pedDay, pedDusk), pedDark)
	pedModel, err := pipeline.TrainCropSVM(pedAll, hogCfg, pipeline.PedWindowW, pipeline.PedWindowH, svmOpts)
	if err != nil {
		return Detectors{}, err
	}

	dbnCfg := dbn.DefaultConfig()
	if cfg.dbnEpochs > 0 {
		dbnCfg.PretrainOpts.Epochs = cfg.dbnEpochs
	}
	if cfg.dbnFineTune > 0 {
		dbnCfg.FineTuneIter = cfg.dbnFineTune
	}
	darkDet, err := pipeline.TrainDarkDetector(seed+5, pipeline.DefaultDarkConfig(), dbnCfg, nWin)
	if err != nil {
		return Detectors{}, err
	}

	return Detectors{
		Day:        pipeline.NewDayDuskDetector(dayModel),
		Dusk:       pipeline.NewDayDuskDetector(duskModel),
		Dark:       darkDet,
		Pedestrian: pipeline.NewPedestrianDetector(pedModel),
	}, nil
}
