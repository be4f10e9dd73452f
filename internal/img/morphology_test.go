package img

import (
	"bytes"
	"math/rand"
	"testing"
)

// naiveDilate and naiveErode are the clamped per-pixel loops the
// running-count kernel replaced, kept as its oracle: every window
// position is scanned in full and pixels outside the image are
// background.
func naiveDilate(b *Binary, radius int) *Binary {
	if radius <= 0 {
		return b.Clone()
	}
	tmp := NewBinary(b.W, b.H)
	for y := 0; y < b.H; y++ {
		row := y * b.W
		for x := 0; x < b.W; x++ {
			v := uint8(0)
			for dx := -radius; dx <= radius; dx++ {
				xx := x + dx
				if xx >= 0 && xx < b.W && b.Pix[row+xx] != 0 {
					v = 1
					break
				}
			}
			tmp.Pix[row+x] = v
		}
	}
	out := NewBinary(b.W, b.H)
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			v := uint8(0)
			for dy := -radius; dy <= radius; dy++ {
				yy := y + dy
				if yy >= 0 && yy < b.H && tmp.Pix[yy*b.W+x] != 0 {
					v = 1
					break
				}
			}
			out.Pix[y*b.W+x] = v
		}
	}
	return out
}

func naiveErode(b *Binary, radius int) *Binary {
	if radius <= 0 {
		return b.Clone()
	}
	tmp := NewBinary(b.W, b.H)
	for y := 0; y < b.H; y++ {
		row := y * b.W
		for x := 0; x < b.W; x++ {
			v := uint8(1)
			for dx := -radius; dx <= radius; dx++ {
				xx := x + dx
				if xx < 0 || xx >= b.W || b.Pix[row+xx] == 0 {
					v = 0
					break
				}
			}
			tmp.Pix[row+x] = v
		}
	}
	out := NewBinary(b.W, b.H)
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			v := uint8(1)
			for dy := -radius; dy <= radius; dy++ {
				yy := y + dy
				if yy < 0 || yy >= b.H || tmp.Pix[yy*b.W+x] == 0 {
					v = 0
					break
				}
			}
			out.Pix[y*b.W+x] = v
		}
	}
	return out
}

// randBinary draws a w x h map whose foreground density is pct percent;
// foreground bytes are 1, or any nonzero value when wide is set.
func randBinary(rng *rand.Rand, w, h, pct int, wide bool) *Binary {
	b := NewBinary(w, h)
	for i := range b.Pix {
		if rng.Intn(100) < pct {
			b.Pix[i] = 1
			if wide {
				b.Pix[i] = uint8(1 + rng.Intn(255))
			}
		}
	}
	return b
}

func sameBinary(a, b *Binary) bool {
	return a.W == b.W && a.H == b.H && bytes.Equal(a.Pix, b.Pix)
}

// TestMorphologyMatchesNaive checks the running-count kernel against
// the clamped loops on random maps of every shape class: 1x1, thinner
// or shorter than the 2r+1 window, and larger, at several densities
// and radii, including nonzero bytes other than 1. Morph.Close is also
// run into a reused scratch (stale larger contents) and in place.
func TestMorphologyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sizes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {2, 3}, {4, 4}, {5, 2}, {9, 9}, {17, 6}, {33, 21}, {64, 48}}
	var m Morph
	reused := NewBinary(80, 80) // larger than any case: exercises shrinking reuse
	for _, sz := range sizes {
		for _, r := range []int{0, 1, 2, 3, 5} {
			for _, pct := range []int{3, 30, 70, 97} {
				for _, wide := range []bool{false, true} {
					b := randBinary(rng, sz[0], sz[1], pct, wide)
					orig := b.Clone()
					wantD, wantE := naiveDilate(b, r), naiveErode(b, r)
					wantC := naiveErode(naiveDilate(b, r), r)
					wantO := naiveDilate(naiveErode(b, r), r)
					for _, c := range []struct {
						name      string
						got, want *Binary
					}{
						{"dilate", Dilate(b, r), wantD},
						{"erode", Erode(b, r), wantE},
						{"close", Close(b, r), wantC},
						{"open", Open(b, r), wantO},
					} {
						if !sameBinary(c.got, c.want) {
							t.Fatalf("%s %dx%d r=%d pct=%d wide=%v: differs from the naive loops", c.name, sz[0], sz[1], r, pct, wide)
						}
					}
					for i := range reused.Pix {
						reused.Pix[i] = 1
					}
					m.Close(reused, b, r)
					if !sameBinary(reused, wantC) {
						t.Fatalf("Morph.Close into reused scratch %dx%d r=%d pct=%d: differs", sz[0], sz[1], r, pct)
					}
					if !sameBinary(b, orig) {
						t.Fatal("Morph.Close modified its source")
					}
					m.Close(b, b, r)
					if !sameBinary(b, wantC) {
						t.Fatalf("in-place Morph.Close %dx%d r=%d pct=%d: differs", sz[0], sz[1], r, pct)
					}
				}
			}
		}
	}
}

// TestLightMaskMatchesPlaneChain checks the fused mask kernel against
// the plane-by-plane composition it replaced (RGBToYCbCr, then
// DualThreshold, or Threshold on the luma plane without chroma), on
// random and saturated-colour images, into a reused destination.
func TestLightMaskMatchesPlaneChain(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	dst := NewBinary(50, 50)
	for trial := 0; trial < 40; trial++ {
		w, h := 1+rng.Intn(40), 1+rng.Intn(30)
		m := randRGB(rng, w, h)
		if trial%4 == 0 {
			// Saturated primaries push Y and Cr to the clamp limits.
			for i := range m.Pix {
				m.Pix[i] = uint8(255 * rng.Intn(2))
			}
		}
		lumaT := uint8(rng.Intn(256))
		crLo := uint8(rng.Intn(256))
		crHi := uint8(rng.Intn(256))
		c := RGBToYCbCr(m)
		for _, chroma := range []bool{true, false} {
			want := Threshold(c.Luma(), lumaT)
			if chroma {
				want = DualThreshold(c, lumaT, crLo, crHi)
			}
			LightMask(dst, m, lumaT, chroma, crLo, crHi)
			if !sameBinary(dst, want) {
				t.Fatalf("trial %d chroma=%v: fused mask differs from the plane chain", trial, chroma)
			}
		}
	}
}

// TestDownsampleBinaryIntoMatchesWrapper checks the buffered
// decimation against the allocating one into a dirty reused buffer,
// and that factor 1 aliases the source.
func TestDownsampleBinaryIntoMatchesWrapper(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dst := NewBinary(40, 40)
	for trial := 0; trial < 30; trial++ {
		b := randBinary(rng, 1+rng.Intn(50), 1+rng.Intn(50), 10, false)
		for f := 2; f <= 4; f++ {
			for i := range dst.Pix {
				dst.Pix[i] = 1
			}
			got := DownsampleBinaryInto(dst, b, f)
			if got != dst || !sameBinary(got, DownsampleBinary(b, f)) {
				t.Fatalf("trial %d factor %d: buffered decimation differs", trial, f)
			}
		}
		if DownsampleBinaryInto(dst, b, 1) != b {
			t.Fatal("factor 1 copied instead of aliasing the source")
		}
	}
}
