// Package img provides the image substrate for the adaptive vehicle
// detection system: planar 8-bit grayscale, interleaved RGB and planar
// YCbCr frames, plus the low-level operations the detection pipelines
// are built from (color conversion, resizing, thresholding, morphology,
// connected components and drawing).
//
// All operations are deterministic and allocation-explicit so that the
// cycle-approximate SoC model can account for every byte moved.
//
// lint:detpath
package img

import "fmt"

// Gray is an 8-bit single-channel image with row-major pixels.
type Gray struct {
	W, H int
	Pix  []uint8 // len == W*H
}

// NewGray returns a zeroed grayscale image of the given size.
// It panics if w or h is not positive.
func NewGray(w, h int) *Gray {
	if w <= 0 || h <= 0 {
		// lint:invariant documented contract: dimensions must be positive
		panic(fmt.Sprintf("img: invalid Gray size %dx%d", w, h)) // lint:alloc cold panic path; fires only on an invariant violation
	}
	return &Gray{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x, y). Out-of-bounds access panics.
func (g *Gray) At(x, y int) uint8 { return g.Pix[y*g.W+x] }

// Set writes the pixel at (x, y). Out-of-bounds access panics.
func (g *Gray) Set(x, y int, v uint8) { g.Pix[y*g.W+x] = v }

// AtClamped returns the pixel at (x, y) with coordinates clamped to the
// image border, matching the replicate padding used by the hardware
// gradient unit.
func (g *Gray) AtClamped(x, y int) uint8 {
	if x < 0 {
		x = 0
	} else if x >= g.W {
		x = g.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= g.H {
		y = g.H - 1
	}
	return g.Pix[y*g.W+x]
}

// Clone returns a deep copy of g.
func (g *Gray) Clone() *Gray {
	out := NewGray(g.W, g.H)
	copy(out.Pix, g.Pix)
	return out
}

// SubImage copies the rectangle r into a freshly allocated image.
// The rectangle is clipped to the image bounds; an empty intersection
// yields a 1x1 black image.
func (g *Gray) SubImage(r Rect) *Gray {
	r = r.Intersect(Rect{0, 0, g.W, g.H})
	if r.Empty() {
		return NewGray(1, 1)
	}
	out := NewGray(r.W(), r.H())
	for y := 0; y < out.H; y++ {
		src := (r.Y0+y)*g.W + r.X0
		copy(out.Pix[y*out.W:(y+1)*out.W], g.Pix[src:src+out.W])
	}
	return out
}

// Fill sets every pixel to v.
func (g *Gray) Fill(v uint8) {
	for i := range g.Pix {
		g.Pix[i] = v
	}
}

// Mean returns the average pixel intensity in [0, 255].
func (g *Gray) Mean() float64 {
	if len(g.Pix) == 0 {
		return 0
	}
	var sum int64
	for _, p := range g.Pix {
		sum += int64(p)
	}
	return float64(sum) / float64(len(g.Pix))
}

// RGB is an 8-bit three-channel image with interleaved R, G, B samples.
type RGB struct {
	W, H int
	Pix  []uint8 // len == 3*W*H, order R G B
}

// NewRGB returns a zeroed RGB image of the given size.
func NewRGB(w, h int) *RGB {
	if w <= 0 || h <= 0 {
		// lint:invariant documented contract: dimensions must be positive
		panic(fmt.Sprintf("img: invalid RGB size %dx%d", w, h))
	}
	return &RGB{W: w, H: h, Pix: make([]uint8, 3*w*h)}
}

// At returns the (r, g, b) triple at (x, y).
func (m *RGB) At(x, y int) (r, g, b uint8) {
	i := 3 * (y*m.W + x)
	return m.Pix[i], m.Pix[i+1], m.Pix[i+2]
}

// Set writes the (r, g, b) triple at (x, y).
func (m *RGB) Set(x, y int, r, g, b uint8) {
	i := 3 * (y*m.W + x)
	m.Pix[i], m.Pix[i+1], m.Pix[i+2] = r, g, b
}

// Clone returns a deep copy of m.
func (m *RGB) Clone() *RGB {
	out := NewRGB(m.W, m.H)
	copy(out.Pix, m.Pix)
	return out
}

// Fill sets every pixel to the (r, g, b) triple.
func (m *RGB) Fill(r, g, b uint8) {
	for i := 0; i < len(m.Pix); i += 3 {
		m.Pix[i], m.Pix[i+1], m.Pix[i+2] = r, g, b
	}
}

// Bytes reports the storage footprint in bytes, used by the SoC model to
// size DMA transfers.
func (m *RGB) Bytes() int { return len(m.Pix) }

// YCbCr is a planar 4:4:4 YCbCr image (BT.601 full range).
type YCbCr struct {
	W, H      int
	Y, Cb, Cr []uint8 // each len == W*H
}

// NewYCbCr returns a zeroed YCbCr image of the given size.
func NewYCbCr(w, h int) *YCbCr {
	if w <= 0 || h <= 0 {
		// lint:invariant documented contract: dimensions must be positive
		panic(fmt.Sprintf("img: invalid YCbCr size %dx%d", w, h))
	}
	n := w * h
	return &YCbCr{W: w, H: h, Y: make([]uint8, n), Cb: make([]uint8, n), Cr: make([]uint8, n)}
}

// Luma returns the Y plane wrapped as a Gray image sharing storage.
func (c *YCbCr) Luma() *Gray { return &Gray{W: c.W, H: c.H, Pix: c.Y} }

// Binary is a 1-bit-per-pixel image stored one byte per pixel
// (0 = background, 1 = foreground), the representation the thresholding
// and morphology hardware stages stream between BRAM buffers.
type Binary struct {
	W, H int
	Pix  []uint8 // values 0 or 1
}

// NewBinary returns a zeroed binary image of the given size.
func NewBinary(w, h int) *Binary {
	if w <= 0 || h <= 0 {
		// lint:invariant documented contract: dimensions must be positive
		panic(fmt.Sprintf("img: invalid Binary size %dx%d", w, h))
	}
	return &Binary{W: w, H: h, Pix: make([]uint8, w*h)}
}

// Reset resizes b to w x h, reusing its pixel buffer when the capacity
// suffices. The pixel contents are unspecified afterwards; callers
// overwrite them.
func (b *Binary) Reset(w, h int) {
	if w <= 0 || h <= 0 {
		// lint:invariant documented contract: dimensions must be positive
		panic(fmt.Sprintf("img: invalid Binary size %dx%d", w, h)) // lint:alloc cold panic path; fires only on an invariant violation
	}
	b.W, b.H = w, h
	if cap(b.Pix) < w*h {
		b.Pix = make([]uint8, w*h)
	} else {
		b.Pix = b.Pix[:w*h]
	}
}

// At returns the bit at (x, y).
func (b *Binary) At(x, y int) uint8 { return b.Pix[y*b.W+x] }

// Set writes the bit at (x, y); any nonzero v is stored as 1.
func (b *Binary) Set(x, y int, v uint8) {
	if v != 0 {
		v = 1
	}
	b.Pix[y*b.W+x] = v
}

// Clone returns a deep copy of b.
func (b *Binary) Clone() *Binary {
	out := NewBinary(b.W, b.H)
	copy(out.Pix, b.Pix)
	return out
}

// Count returns the number of foreground pixels.
func (b *Binary) Count() int {
	n := 0
	for _, p := range b.Pix {
		if p != 0 {
			n++
		}
	}
	return n
}

// And stores the pixelwise AND of a and b into a fresh image.
// It panics if the sizes differ.
func And(a, b *Binary) *Binary {
	if a.W != b.W || a.H != b.H {
		// lint:invariant documented contract: operands must be the same size
		panic(fmt.Sprintf("img: And size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H))
	}
	out := NewBinary(a.W, a.H)
	for i := range out.Pix {
		out.Pix[i] = a.Pix[i] & b.Pix[i]
	}
	return out
}

// Or stores the pixelwise OR of a and b into a fresh image.
// It panics if the sizes differ.
func Or(a, b *Binary) *Binary {
	if a.W != b.W || a.H != b.H {
		// lint:invariant documented contract: operands must be the same size
		panic(fmt.Sprintf("img: Or size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H))
	}
	out := NewBinary(a.W, a.H)
	for i := range out.Pix {
		out.Pix[i] = a.Pix[i] | b.Pix[i]
	}
	return out
}

// Rect is an axis-aligned rectangle with half-open bounds [X0,X1)×[Y0,Y1).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// W returns the rectangle width (zero if degenerate).
func (r Rect) W() int {
	if r.X1 <= r.X0 {
		return 0
	}
	return r.X1 - r.X0
}

// H returns the rectangle height (zero if degenerate).
func (r Rect) H() int {
	if r.Y1 <= r.Y0 {
		return 0
	}
	return r.Y1 - r.Y0
}

// Empty reports whether the rectangle contains no pixels.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// Area returns the number of pixels covered.
func (r Rect) Area() int { return r.W() * r.H() }

// Intersect returns the intersection of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{max(r.X0, s.X0), max(r.Y0, s.Y0), min(r.X1, s.X1), min(r.Y1, s.Y1)}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Union returns the smallest rectangle containing both r and s.
// An empty rectangle is the identity.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{min(r.X0, s.X0), min(r.Y0, s.Y0), max(r.X1, s.X1), max(r.Y1, s.Y1)}
}

// Contains reports whether the point (x, y) lies inside r.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Center returns the integer center point of r.
func (r Rect) Center() (x, y int) { return (r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2 }

// IoU returns the intersection-over-union of r and s in [0, 1].
func (r Rect) IoU(s Rect) float64 {
	inter := r.Intersect(s).Area()
	if inter == 0 {
		return 0
	}
	union := r.Area() + s.Area() - inter
	return float64(inter) / float64(union)
}

func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d %dx%d]", r.X0, r.Y0, r.W(), r.H())
}
