// Package dbn implements the paper's deep belief network for taillight
// detection: a stack of greedily pretrained RBMs (81 visible units for
// a 9x9 binary window, hidden layers of 20 and 8 units) topped with a
// 4-way softmax layer that "determines the size and shape class of
// taillights" (§III-B), fine-tuned end to end by backpropagation.
//
// lint:detpath
package dbn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"advdet/internal/rbm"
)

// The paper's architecture constants.
const (
	// Window is the side of the sliding window (9x9 = 81 visible units).
	Window = 9
	// Stride is the sliding-window step.
	Stride = 2
	// NumClasses is the size/shape output layer width.
	NumClasses = 4
)

// Class labels for the 4 output nodes.
const (
	ClassNone   = 0 // no taillight in the window
	ClassSmall  = 1 // small/far lamp
	ClassMedium = 2 // medium lamp
	ClassLarge  = 3 // large/near lamp
)

// ClassName returns a human-readable label.
func ClassName(c int) string {
	switch c {
	case ClassNone:
		return "none"
	case ClassSmall:
		return "small"
	case ClassMedium:
		return "medium"
	case ClassLarge:
		return "large"
	}
	return "invalid"
}

// Network is the stacked model. Hidden layers use logistic units whose
// weights are initialized by RBM pretraining; OutW/OutB form the
// softmax classification layer.
type Network struct {
	Sizes []int       // e.g. [81 20 8]
	W     [][]float64 // W[l] is row-major [Sizes[l+1]][Sizes[l]]
	B     [][]float64 // B[l] has Sizes[l+1] entries
	OutW  []float64   // [NumClasses][Sizes[last]] row-major
	OutB  []float64   // [NumClasses]
}

// Config selects the architecture and training schedule.
type Config struct {
	Hidden       []int // hidden layer sizes (default {20, 8})
	PretrainOpts rbm.TrainOptions
	FineTuneLR   float64 // backprop learning rate (default 0.3)
	FineTuneIter int     // backprop epochs (default 30)
}

// DefaultConfig returns the paper's 81-20-8(-4) architecture.
func DefaultConfig() Config {
	return Config{
		Hidden:       []int{20, 8},
		PretrainOpts: rbm.DefaultTrainOptions(),
		FineTuneLR:   0.3,
		FineTuneIter: 30,
	}
}

// Train pretrains the stack layer by layer on the unlabeled windows,
// then fine-tunes the whole network on the labeled set.
// X rows are length Window*Window with values in [0,1]; labels are
// class indices in [0, NumClasses).
func Train(X [][]float64, labels []int, cfg Config, rng rbm.RNG) (*Network, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("dbn: empty training set")
	}
	if len(labels) != len(X) {
		return nil, fmt.Errorf("dbn: %d samples but %d labels", len(X), len(labels))
	}
	nv := len(X[0])
	for i, x := range X {
		if len(x) != nv {
			return nil, fmt.Errorf("dbn: sample %d has %d features, want %d", i, len(x), nv)
		}
	}
	for i, l := range labels {
		if l < 0 || l >= NumClasses {
			return nil, fmt.Errorf("dbn: label %d at %d out of range", l, i)
		}
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{20, 8}
	}
	if cfg.FineTuneLR <= 0 {
		cfg.FineTuneLR = 0.3
	}
	if cfg.FineTuneIter <= 0 {
		cfg.FineTuneIter = 30
	}

	sizes := append([]int{nv}, cfg.Hidden...)
	n := &Network{Sizes: sizes}

	// Greedy layerwise pretraining: train an RBM on the activations of
	// the layer below, then propagate the data up through it.
	cur := X
	for l := 0; l+1 < len(sizes); l++ {
		machine := rbm.New(sizes[l], sizes[l+1], rng)
		machine.Train(cur, cfg.PretrainOpts, rng)
		n.W = append(n.W, machine.W)
		n.B = append(n.B, machine.BH)
		up := make([][]float64, len(cur))
		for i, v := range cur {
			up[i] = machine.HiddenProbs(v, nil)
		}
		cur = up
	}

	// Output layer starts at zero (softmax over the top features).
	top := sizes[len(sizes)-1]
	n.OutW = make([]float64, NumClasses*top)
	n.OutB = make([]float64, NumClasses)

	n.fineTune(X, labels, cfg, rng)
	return n, nil
}

// Activations is caller-owned storage for one forward pass: a slice
// per layer above the input plus the output logits and probabilities.
// Reusing one per goroutine makes window classification allocation-
// free. The zero value is ready for use; it sizes itself to the
// network on first use.
type Activations struct {
	layers [][]float64 // layers[0] aliases the input; layers[l] has Sizes[l] entries
	logits [NumClasses]float64
	probs  [NumClasses]float64
}

// fit sizes a for n's topology, reusing its slices when they match.
func (a *Activations) fit(n *Network) {
	if len(a.layers) != len(n.Sizes) {
		a.layers = make([][]float64, len(n.Sizes))
	}
	for l := 1; l < len(n.Sizes); l++ {
		if len(a.layers[l]) != n.Sizes[l] {
			a.layers[l] = make([]float64, n.Sizes[l])
		}
	}
}

// forward runs the network into a, returning all layer activations;
// acts[0] is the input, acts[len(Sizes)-1] the top hidden layer, and
// the returned probs are the softmax class probabilities. Both alias a.
//
// lint:hotpath
func (n *Network) forward(x []float64, a *Activations) (acts [][]float64, probs []float64) {
	if len(x) != n.Sizes[0] {
		// lint:invariant window length is fixed by the trained topology; mismatch is a wiring bug
		panic(fmt.Sprintf("dbn: input length %d, want %d", len(x), n.Sizes[0])) // lint:alloc cold panic path; fires only on a wiring bug
	}
	a.fit(n)
	acts = a.layers
	acts[0] = x
	for l := 0; l+1 < len(n.Sizes); l++ {
		in := acts[l]
		out := acts[l+1]
		w := n.W[l]
		nvl := n.Sizes[l]
		for h := range out {
			s := n.B[l][h]
			row := w[h*nvl : (h+1)*nvl]
			for i, v := range in {
				s += row[i] * v
			}
			out[h] = 1 / (1 + math.Exp(-s))
		}
	}
	top := acts[len(acts)-1]
	logits := a.logits[:]
	tw := len(top)
	maxL := math.Inf(-1)
	for c := 0; c < NumClasses; c++ {
		s := n.OutB[c]
		row := n.OutW[c*tw : (c+1)*tw]
		for i, v := range top {
			s += row[i] * v
		}
		logits[c] = s
		if s > maxL {
			maxL = s
		}
	}
	var sum float64
	probs = a.probs[:]
	for c, l := range logits {
		probs[c] = math.Exp(l - maxL)
		sum += probs[c]
	}
	for c := range probs {
		probs[c] /= sum
	}
	return acts, probs
}

// Probs returns the class probabilities for a window.
func (n *Network) Probs(x []float64) []float64 {
	_, p := n.forward(x, new(Activations))
	return p
}

// Classify returns the most probable class and its probability.
func (n *Network) Classify(x []float64) (class int, prob float64) {
	return n.ClassifyInto(x, new(Activations))
}

// ClassifyInto is Classify computing into the caller's activation
// buffers, so a sliding-window sweep that reuses one Activations per
// worker classifies without allocating.
//
// lint:hotpath
func (n *Network) ClassifyInto(x []float64, buf *Activations) (class int, prob float64) {
	_, p := n.forward(x, buf)
	best := 0
	for c := 1; c < len(p); c++ {
		if p[c] > p[best] {
			best = c
		}
	}
	return best, p[best]
}

// fineTune runs stochastic-gradient backpropagation with cross-entropy
// loss through the softmax and sigmoid layers. Its activation and
// delta buffers are allocated once and reused for every sample.
func (n *Network) fineTune(X [][]float64, labels []int, cfg Config, rng rbm.RNG) {
	nSamples := len(X)
	order := make([]int, nSamples)
	for i := range order {
		order[i] = i
	}
	top := n.Sizes[len(n.Sizes)-1]
	var buf Activations
	dOut := make([]float64, NumClasses)
	// deltas[l] holds dL/d(activations of layer l) for the hidden
	// layers l >= 1.
	deltas := make([][]float64, len(n.Sizes))
	for l := 1; l < len(n.Sizes); l++ {
		deltas[l] = make([]float64, n.Sizes[l])
	}
	for epoch := 0; epoch < cfg.FineTuneIter; epoch++ {
		// Shuffle with the shared RNG for determinism.
		for i := nSamples - 1; i > 0; i-- {
			j := int(rng.Float64() * float64(i+1))
			if j > i {
				j = i
			}
			order[i], order[j] = order[j], order[i]
		}
		lr := cfg.FineTuneLR / (1 + 0.05*float64(epoch))
		for _, idx := range order {
			x, label := X[idx], labels[idx]
			acts, probs := n.forward(x, &buf)
			topAct := acts[len(acts)-1]

			// Softmax output delta: p - onehot(label).
			copy(dOut, probs)
			dOut[label] -= 1

			// Delta for the top hidden layer.
			dHidden := deltas[len(n.Sizes)-1]
			clear(dHidden)
			for c := 0; c < NumClasses; c++ {
				row := n.OutW[c*top : (c+1)*top]
				for i := range dHidden {
					dHidden[i] += dOut[c] * row[i]
				}
			}
			// Output layer update.
			for c := 0; c < NumClasses; c++ {
				row := n.OutW[c*top : (c+1)*top]
				for i, a := range topAct {
					row[i] -= lr * dOut[c] * a
				}
				n.OutB[c] -= lr * dOut[c]
			}

			// Backprop through the sigmoid stack.
			delta := dHidden
			for l := len(n.Sizes) - 2; l >= 0; l-- {
				in := acts[l]
				out := acts[l+1]
				nvl := n.Sizes[l]
				// delta currently holds dL/d(out activations).
				for h := range delta {
					delta[h] *= out[h] * (1 - out[h]) // sigmoid'
				}
				var prev []float64
				if l > 0 {
					prev = deltas[l]
					clear(prev)
					for h := range delta {
						row := n.W[l][h*nvl : (h+1)*nvl]
						for i := range prev {
							prev[i] += delta[h] * row[i]
						}
					}
				}
				for h := range delta {
					row := n.W[l][h*nvl : (h+1)*nvl]
					d := lr * delta[h]
					for i, v := range in {
						row[i] -= d * v
					}
					n.B[l][h] -= d
				}
				delta = prev
			}
		}
	}
}

// Accuracy evaluates classification accuracy on a labeled set.
func (n *Network) Accuracy(X [][]float64, labels []int) float64 {
	if len(X) == 0 {
		return 0
	}
	correct := 0
	for i, x := range X {
		if c, _ := n.Classify(x); c == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}

// netFile is the serialized form.
type netFile struct {
	Sizes []int
	W     [][]float64
	B     [][]float64
	OutW  []float64
	OutB  []float64
}

// Encode writes the network to w.
func (n *Network) Encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(netFile{n.Sizes, n.W, n.B, n.OutW, n.OutB})
}

// Decode reads a network from r.
func Decode(r io.Reader) (*Network, error) {
	var f netFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("dbn: decode: %w", err)
	}
	return &Network{Sizes: f.Sizes, W: f.W, B: f.B, OutW: f.OutW, OutB: f.OutB}, nil
}

// Save writes the network to the named file.
func (n *Network) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := n.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a network from the named file.
func Load(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// WeightBytes reports the model footprint (32-bit words) for the FPGA
// resource model.
func (n *Network) WeightBytes() int {
	total := len(n.OutW) + len(n.OutB)
	for l := range n.W {
		total += len(n.W[l]) + len(n.B[l])
	}
	return 4 * total
}
