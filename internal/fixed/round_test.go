package fixed

import (
	"math"
	"testing"
)

// TestRoundShiftI64HalfEven pins the convergent-rounding table,
// including the negative-tie cases where a floor-based shift and a
// round-half-away implementation both diverge.
func TestRoundShiftI64HalfEven(t *testing.T) {
	cases := []struct {
		v     int64
		shift uint
		want  int64
	}{
		{0, 4, 0},
		{7, 0, 7},
		{8, 4, 0},    // 0.5 -> even 0
		{24, 4, 2},   // 1.5 -> even 2
		{40, 4, 2},   // 2.5 -> even 2
		{9, 4, 1},    // just above the tie rounds up
		{23, 4, 1},   // just below the tie rounds down
		{-8, 4, 0},   // -0.5 -> even 0
		{-24, 4, -2}, // -1.5 -> even -2
		{-40, 4, -2}, // -2.5 -> even -2
		{-9, 4, -1},
		{-23, 4, -1},
		{math.MaxInt64 >> 1, 1, math.MaxInt64>>2 + 1}, // odd-quotient tie rounds up to even
	}
	for _, c := range cases {
		if got := RoundShiftI64(c.v, c.shift); got != c.want {
			t.Errorf("RoundShiftI64(%d, %d) = %d, want %d", c.v, c.shift, got, c.want)
		}
	}
}

// TestMulAccumulatedRoundingBias is the regression for the truncating
// rescale the Mul/Dot chain used to apply. Every product below lands
// exactly on a half-LSB tie, the worst case for any rounding mode:
// truncation loses 0.5 LSB on every term and the accumulated margin
// drifts low linearly with the term count — for the 49 blocks of a
// vehicle window that is ~3.7e-4, enough to flip windows near the
// decision threshold. Round-half-even ties
// alternate with the quotient parity and cancel, so the accumulated
// error of the whole chain stays within one LSB.
func TestMulAccumulatedRoundingBias(t *testing.T) {
	const terms = 96
	a := Q(1 << (FracBits - 1)) // 0.5: product fraction is (b & 1) half-LSBs
	var sum, exact float64
	for k := 0; k < terms; k++ {
		b := Q(2*k + 1) // odd raw value: every product ties
		sum += a.Mul(b).Float()
		exact += a.Float() * b.Float()
	}
	errLSB := math.Abs(sum-exact) * float64(One)
	if errLSB > 1 {
		t.Fatalf("accumulated Mul rounding error %.2f LSB over %d tie products; want <= 1 (truncation drifts %d LSB)",
			errLSB, terms, terms/2)
	}
}

// TestDotMatchesWideReference pins Dot to the wide-accumulator
// round-half-even reference on a tie-heavy vector, the case where a
// truncating final shift is off by the tie direction.
func TestDotMatchesWideReference(t *testing.T) {
	a := make([]Q, 33)
	b := make([]Q, 33)
	var acc int64
	for i := range a {
		a[i] = Q(1<<15 + int32(i))
		b[i] = Q(2*int32(i) + 1)
		acc += int64(a[i]) * int64(b[i])
	}
	want := Q(rneShift(acc, FracBits))
	if got := Dot(a, b); got != want {
		t.Fatalf("Dot = %d, want round-half-even reference %d", got, want)
	}
}
