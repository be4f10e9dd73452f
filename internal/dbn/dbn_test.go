package dbn

import (
	"bytes"
	"math"
	"testing"

	"advdet/internal/synth"
)

func TestClassConstantsMatchSynth(t *testing.T) {
	if ClassNone != synth.WindowNone || ClassSmall != synth.WindowSmall ||
		ClassMedium != synth.WindowMedium || ClassLarge != synth.WindowLarge {
		t.Fatal("dbn class constants diverged from synth window classes")
	}
}

func TestClassName(t *testing.T) {
	for c, want := range map[int]string{0: "none", 1: "small", 2: "medium", 3: "large", 9: "invalid"} {
		if got := ClassName(c); got != want {
			t.Fatalf("ClassName(%d) = %q, want %q", c, got, want)
		}
	}
}

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.PretrainOpts.Epochs = 3
	cfg.FineTuneIter = 15
	return cfg
}

func TestTrainErrors(t *testing.T) {
	rng := synth.NewRNG(1)
	if _, err := Train(nil, nil, DefaultConfig(), rng); err == nil {
		t.Fatal("empty set accepted")
	}
	X, labels := synth.TaillightWindowSet(1, 3)
	if _, err := Train(X, labels[:2], DefaultConfig(), rng); err == nil {
		t.Fatal("mismatched labels accepted")
	}
	bad := make([]int, len(X))
	bad[0] = 17
	if _, err := Train(X, bad, DefaultConfig(), rng); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	ragged := [][]float64{make([]float64, 81), make([]float64, 80)}
	if _, err := Train(ragged, []int{0, 1}, DefaultConfig(), rng); err == nil {
		t.Fatal("ragged features accepted")
	}
}

func TestTrainArchitecture(t *testing.T) {
	X, labels := synth.TaillightWindowSet(2, 10)
	n, err := Train(X, labels, quickConfig(), synth.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Sizes) != 3 || n.Sizes[0] != 81 || n.Sizes[1] != 20 || n.Sizes[2] != 8 {
		t.Fatalf("architecture %v, want [81 20 8]", n.Sizes)
	}
	if len(n.OutW) != NumClasses*8 || len(n.OutB) != NumClasses {
		t.Fatal("output layer shape wrong")
	}
}

func TestProbsSumToOne(t *testing.T) {
	X, labels := synth.TaillightWindowSet(4, 8)
	n, err := Train(X, labels, quickConfig(), synth.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range X[:10] {
		p := n.Probs(x)
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("probability %v out of range", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", sum)
		}
	}
}

// TestClassifyIntoMatchesClassify checks that classifying into one
// reused Activations gives bitwise the same class and probability as
// the allocating Classify on every training window, and that the
// buffer refits when it moves to a network of another topology.
func TestClassifyIntoMatchesClassify(t *testing.T) {
	X, labels := synth.TaillightWindowSet(8, 12)
	small := quickConfig()
	small.Hidden = []int{12}
	var buf Activations
	for _, cfg := range []Config{quickConfig(), small, quickConfig()} {
		n, err := Train(X, labels, cfg, synth.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range X {
			wc, wp := n.Classify(x)
			gc, gp := n.ClassifyInto(x, &buf)
			if gc != wc || math.Float64bits(gp) != math.Float64bits(wp) {
				t.Fatalf("hidden %v window %d: ClassifyInto (%d, %v), Classify (%d, %v)", cfg.Hidden, i, gc, gp, wc, wp)
			}
		}
	}
}

func TestProbsPanicsOnWrongLength(t *testing.T) {
	X, labels := synth.TaillightWindowSet(6, 4)
	n, err := Train(X, labels, quickConfig(), synth.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input length did not panic")
		}
	}()
	n.Probs(make([]float64, 9))
}

func TestTrainedNetworkLearnsClasses(t *testing.T) {
	// The headline requirement: after training, the DBN must separate
	// the four size/shape classes well on held-out data.
	X, labels := synth.TaillightWindowSet(10, 120)
	cfg := DefaultConfig()
	cfg.PretrainOpts.Epochs = 5
	cfg.FineTuneIter = 40
	n, err := Train(X, labels, cfg, synth.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	testX, testL := synth.TaillightWindowSet(999, 40)
	acc := n.Accuracy(testX, testL)
	if acc < 0.9 {
		t.Fatalf("held-out window accuracy %v, want >= 0.9", acc)
	}
}

func TestClassifyDistinguishesSizes(t *testing.T) {
	X, labels := synth.TaillightWindowSet(12, 100)
	cfg := DefaultConfig()
	cfg.PretrainOpts.Epochs = 5
	cfg.FineTuneIter = 40
	n, err := Train(X, labels, cfg, synth.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	// A canonical large blob must not be classified as small and vice
	// versa; tolerate adjacent-size confusion on random jitter.
	small := synth.TaillightWindow(synth.NewRNG(501), synth.WindowSmall)
	large := synth.TaillightWindow(synth.NewRNG(502), synth.WindowLarge)
	cs, _ := n.Classify(small)
	cl, _ := n.Classify(large)
	if cs == ClassLarge {
		t.Fatal("small blob classified large")
	}
	if cl == ClassSmall || cl == ClassNone {
		t.Fatalf("large blob classified %s", ClassName(cl))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	X, labels := synth.TaillightWindowSet(14, 6)
	n, err := Train(X, labels, quickConfig(), synth.NewRNG(15))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := X[0]
	a, b := n.Probs(x), got.Probs(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("decoded network disagrees")
		}
	}
}

func TestSaveLoad(t *testing.T) {
	X, labels := synth.TaillightWindowSet(16, 6)
	n, err := Train(X, labels, quickConfig(), synth.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/dbn.bin"
	if err := n.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := n.Classify(X[0])
	c2, _ := got.Classify(X[0])
	if c1 != c2 {
		t.Fatal("loaded network classifies differently")
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestWeightBytes(t *testing.T) {
	X, labels := synth.TaillightWindowSet(18, 4)
	n, err := Train(X, labels, quickConfig(), synth.NewRNG(19))
	if err != nil {
		t.Fatal(err)
	}
	// 81*20 + 20 + 20*8 + 8 + 4*8 + 4 weights, 4 bytes each.
	want := 4 * (81*20 + 20 + 20*8 + 8 + 4*8 + 4)
	if got := n.WeightBytes(); got != want {
		t.Fatalf("WeightBytes = %d, want %d", got, want)
	}
}
