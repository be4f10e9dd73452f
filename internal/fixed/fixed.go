// Package fixed provides the fixed-point arithmetic the hardware
// pipelines compute in: the PL has no floating-point units, so the
// HOG descriptor, block normalization and SVM dot product of Fig. 2
// are Q-format datapaths. The package supplies Q16.16 scalar
// arithmetic, saturating conversions, an integer square root (for the
// L2 normalizer), and quantized HOG/SVM evaluation paths used by the
// quantization-loss benchmarks.
//
// This package is the boundary of the float world: everything inside
// the PL computes in Q16.16 through the saturating methods below, and
// advdetlint's fixedops analyzer rejects raw operator arithmetic on Q
// everywhere else in the module. Float conversions live only in the
// explicitly annotated helpers.
//
// lint:datapath
package fixed

import (
	"fmt"
	"math"
)

// Q is a Q16.16 fixed-point number: 1 sign bit, 15 integer bits, 16
// fractional bits, stored in int32.
type Q int32

// One is the Q16.16 representation of 1.0.
const One Q = 1 << 16

// FracBits is the number of fractional bits.
const FracBits = 16

// FromFloat converts with saturation to the representable range.
//
// lint:allowfloat float/fixed conversion boundary (runs on the PS)
func FromFloat(f float64) Q {
	v := math.Round(f * float64(One))
	if v > math.MaxInt32 {
		return Q(math.MaxInt32)
	}
	if v < math.MinInt32 {
		return Q(math.MinInt32)
	}
	return Q(v)
}

// Float converts back to float64.
//
// lint:allowfloat float/fixed conversion boundary (runs on the PS)
func (q Q) Float() float64 { return float64(q) / float64(One) }

// Mul multiplies with a 64-bit intermediate, round-half-even rescale
// and saturation. Rounding to nearest (ties to even) instead of
// truncating keeps the rescale bias-free: an arithmetic shift always
// rounds toward minus infinity, so a chain of truncating multiplies
// drifts low by up to half an LSB per operation — a systematic bias
// that accumulates across the bw x bh blocks of a quantized window
// margin and pushes near-threshold windows across the decision
// boundary. DSP48 accumulator chains round once, convergently, at the
// output stage; so does this.
func (q Q) Mul(r Q) Q {
	p := RoundShiftI64(int64(q)*int64(r), FracBits)
	if p > math.MaxInt32 {
		return Q(math.MaxInt32)
	}
	if p < math.MinInt32 {
		return Q(math.MinInt32)
	}
	return Q(p)
}

// RoundShiftI64 arithmetically shifts v right by shift bits, rounding
// to nearest with ties to even (convergent rounding — what a DSP48
// output stage with CARRYIN-based rounding implements). shift must be
// in [0, 62]. Unlike a bare >>, which floors and therefore biases a
// multiply-accumulate chain low by up to half an LSB per operation,
// round-half-even is bias-free in expectation and on tie sequences.
func RoundShiftI64(v int64, shift uint) int64 {
	if shift == 0 {
		return v
	}
	q := v >> shift
	half := int64(1) << (shift - 1)
	// v>>shift floors, so the masked remainder is the non-negative
	// fraction for negative v too.
	frac := v & (int64(1)<<shift - 1)
	if frac > half || (frac == half && q&1 != 0) {
		q++
	}
	return q
}

// Div divides with a 64-bit intermediate; division by zero saturates
// to the sign-appropriate extreme, matching the RTL divider's
// saturation behaviour.
func (q Q) Div(r Q) Q {
	if r == 0 {
		if q >= 0 {
			return Q(math.MaxInt32)
		}
		return Q(math.MinInt32)
	}
	p := (int64(q) << FracBits) / int64(r)
	if p > math.MaxInt32 {
		return Q(math.MaxInt32)
	}
	if p < math.MinInt32 {
		return Q(math.MinInt32)
	}
	return Q(p)
}

// Add adds with saturation.
func (q Q) Add(r Q) Q {
	s := int64(q) + int64(r)
	if s > math.MaxInt32 {
		return Q(math.MaxInt32)
	}
	if s < math.MinInt32 {
		return Q(math.MinInt32)
	}
	return Q(s)
}

// Sub subtracts with saturation.
func (q Q) Sub(r Q) Q {
	s := int64(q) - int64(r)
	if s > math.MaxInt32 {
		return Q(math.MaxInt32)
	}
	if s < math.MinInt32 {
		return Q(math.MinInt32)
	}
	return Q(s)
}

// Neg returns -q with saturation: the RTL's two's-complement negate
// clamps the one asymmetric case, -MinInt32, to MaxInt32.
func (q Q) Neg() Q {
	if int32(q) == math.MinInt32 {
		return Q(math.MaxInt32)
	}
	return -q
}

// String formats q as its float value for logs and tests.
//
// lint:allowfloat reporting helper (runs on the PS)
func (q Q) String() string { return fmt.Sprintf("%g", q.Float()) }

// Sqrt32 returns the integer square root of v (floor), the shift-and-
// subtract circuit the L2-Hys normalizer instantiates.
func Sqrt32(v uint32) uint32 {
	var res uint32
	bit := uint32(1) << 30
	for bit > v {
		bit >>= 2
	}
	for bit != 0 {
		if v >= res+bit {
			v -= res + bit
			res = res>>1 + bit
		} else {
			res >>= 1
		}
		bit >>= 2
	}
	return res
}

// SqrtQ returns the Q16.16 square root of a non-negative Q value.
// Negative inputs return 0 (the RTL clamps them).
func SqrtQ(q Q) Q {
	if q <= 0 {
		return 0
	}
	// sqrt(x * 2^16) in integer domain = sqrt(x) * 2^8 * sqrt(2^0)...
	// compute over a 64-bit widened value to keep precision:
	// sqrt(q * 2^16) yields Q16.16 of sqrt(v).
	wide := uint64(q) << FracBits
	// Integer sqrt of a 48-bit value via Newton iterations seeded by
	// the 32-bit circuit.
	x := uint64(Sqrt32(uint32(wide>>16))) << 8
	if x == 0 {
		x = 1
	}
	for i := 0; i < 4; i++ {
		x = (x + wide/x) / 2
	}
	// Floor-correct.
	for x*x > wide {
		x--
	}
	for (x+1)*(x+1) <= wide {
		x++
	}
	return Q(x)
}

// Vector helpers for the quantized datapaths.

// QuantizeVec converts a float vector to Q16.16.
//
// lint:allowfloat float/fixed conversion boundary (runs on the PS)
func QuantizeVec(v []float64) []Q {
	out := make([]Q, len(v))
	for i, f := range v {
		out[i] = FromFloat(f)
	}
	return out
}

// DequantizeVec converts back to float64.
//
// lint:allowfloat float/fixed conversion boundary (runs on the PS)
func DequantizeVec(v []Q) []float64 {
	out := make([]float64, len(v))
	for i, q := range v {
		out[i] = q.Float()
	}
	return out
}

// Dot computes a fixed-point dot product the way the DSP48 cascade
// does: raw Q32.32 products accumulate at full width in the wide
// accumulator and are rescaled to Q16.16 once at the end — with a
// round-half-even final shift (see Mul), so the single rescale is
// bias-free too and no per-term truncation error accumulates.
func Dot(a, b []Q) Q {
	if len(a) != len(b) {
		// lint:invariant feature and weight vectors are sized by the same HOG config
		panic(fmt.Sprintf("fixed: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var acc int64 // Q32.32
	for i := range a {
		acc += int64(a[i]) * int64(b[i])
	}
	acc = RoundShiftI64(acc, FracBits)
	if acc > math.MaxInt32 {
		return Q(math.MaxInt32)
	}
	if acc < math.MinInt32 {
		return Q(math.MinInt32)
	}
	return Q(acc)
}

// L2NormalizeQ normalizes v in place to (near) unit L2 norm with
// clipping, the fixed-point version of the software l2hys: values are
// divided by sqrt(sum of squares + eps) and clipped at clip, then
// renormalized once.
func L2NormalizeQ(v []Q, clip Q) {
	norm := func() Q {
		var acc int64
		for _, x := range v {
			acc += (int64(x) * int64(x)) >> FracBits
		}
		if acc > math.MaxInt32 {
			acc = math.MaxInt32
		}
		return SqrtQ(Q(acc))
	}
	n := norm()
	if n == 0 {
		return
	}
	for i := range v {
		v[i] = v[i].Div(n)
		if v[i] > clip {
			v[i] = clip
		} else if v[i] < -clip {
			v[i] = -clip
		}
	}
	n = norm()
	if n == 0 {
		return
	}
	for i := range v {
		v[i] = v[i].Div(n)
	}
}
