// Package models bundles the trained model set of the system and its
// on-disk layout, so training (cmd/trainmodels) and deployment
// (cmd/advdet, examples) can exchange models without retraining.
package models

import (
	"fmt"
	"os"
	"path/filepath"

	"advdet/internal/dbn"
	"advdet/internal/pipeline"
	"advdet/internal/svm"
)

// File names inside a model directory.
const (
	DayFile        = "day.svm"
	DuskFile       = "dusk.svm"
	CombinedFile   = "combined.svm"
	PedestrianFile = "pedestrian.svm"
	TaillightFile  = "taillight.dbn"
	PairFile       = "pair.svm"
)

// Bundle is the complete trained model set.
type Bundle struct {
	Day        *svm.Model
	Dusk       *svm.Model
	Combined   *svm.Model
	Pedestrian *svm.Model
	Taillight  *dbn.Network
	Pair       *svm.Model
}

// Validate checks that every model needed by the adaptive system is
// present.
func (b *Bundle) Validate() error {
	missing := func(name string, ok bool) error {
		if ok {
			return nil
		}
		return fmt.Errorf("models: bundle is missing %s", name)
	}
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"day model", b.Day != nil},
		{"dusk model", b.Dusk != nil},
		{"pedestrian model", b.Pedestrian != nil},
		{"taillight DBN", b.Taillight != nil},
		{"pair SVM", b.Pair != nil},
	} {
		if err := missing(c.name, c.ok); err != nil {
			return err
		}
	}
	return nil
}

// Save writes the bundle to dir (created if necessary). The combined
// model is optional.
func (b *Bundle) Save(dir string) error {
	if err := b.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	save := func(name string, m interface{ Save(string) error }) error {
		return m.Save(filepath.Join(dir, name))
	}
	if err := save(DayFile, b.Day); err != nil {
		return err
	}
	if err := save(DuskFile, b.Dusk); err != nil {
		return err
	}
	if b.Combined != nil {
		if err := save(CombinedFile, b.Combined); err != nil {
			return err
		}
	}
	if err := save(PedestrianFile, b.Pedestrian); err != nil {
		return err
	}
	if err := save(TaillightFile, b.Taillight); err != nil {
		return err
	}
	return save(PairFile, b.Pair)
}

// Load reads a bundle from dir. The combined model is loaded when
// present.
func Load(dir string) (*Bundle, error) {
	b := &Bundle{}
	var err error
	if b.Day, err = svm.Load(filepath.Join(dir, DayFile)); err != nil {
		return nil, fmt.Errorf("models: %w", err)
	}
	if b.Dusk, err = svm.Load(filepath.Join(dir, DuskFile)); err != nil {
		return nil, fmt.Errorf("models: %w", err)
	}
	if b.Pedestrian, err = svm.Load(filepath.Join(dir, PedestrianFile)); err != nil {
		return nil, fmt.Errorf("models: %w", err)
	}
	if b.Taillight, err = dbn.Load(filepath.Join(dir, TaillightFile)); err != nil {
		return nil, fmt.Errorf("models: %w", err)
	}
	if b.Pair, err = svm.Load(filepath.Join(dir, PairFile)); err != nil {
		return nil, fmt.Errorf("models: %w", err)
	}
	if m, err := svm.Load(filepath.Join(dir, CombinedFile)); err == nil {
		b.Combined = m
	}
	return b, b.Validate()
}

// Detectors assembles the adaptive system's detector set from the
// bundle.
func (b *Bundle) Detectors() (day *pipeline.HOGDetector, dusk *pipeline.HOGDetector,
	dark *pipeline.DarkDetector, ped *pipeline.HOGDetector, err error) {
	if err := b.Validate(); err != nil {
		return nil, nil, nil, nil, err
	}
	day = pipeline.NewDayDuskDetector(b.Day)
	dusk = pipeline.NewDayDuskDetector(b.Dusk)
	dark = pipeline.NewDarkDetector(pipeline.DefaultDarkConfig(), b.Taillight, b.Pair)
	ped = pipeline.NewPedestrianDetector(b.Pedestrian)
	return day, dusk, dark, ped, nil
}
