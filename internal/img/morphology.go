package img

import "bytes"

// Binary morphology with a square structuring element of the given
// radius (the (2r+1)x(2r+1) box the closing stage of the dark pipeline
// uses to remove threshold noise and seal small holes in light blobs).
// Pixels outside the image are treated as background.
//
// Every operator is one kernel applied twice: a separable pair of 1-D
// running-count passes, horizontal then vertical. A pixel of a pass's
// output is foreground when at least need of the 2r+1 pixels in its
// window are, pixels outside the image counting as background. With
// need = 1 a pass is the box maximum of dilation; with need = 2r+1 it
// is the box minimum of erosion, since a window reaching outside the
// image then cannot be full. The running count costs O(1) per pixel at
// any radius.

// Morph is the reusable scratch of the morphology kernel: the
// horizontal pass's output and which of its rows hold foreground, the
// vertical pass's per-column counts, and a row of zeros. The zero value
// is ready for use; a Morph serves one goroutine at a time.
type Morph struct {
	tmp  Binary
	live []bool
	cnt  []int32
	zero []uint8
}

// Close writes the closing of src (dilation followed by erosion) into
// dst, resizing dst and reusing the buffers of dst and m; dst may be
// src itself.
//
// lint:hotpath
func (m *Morph) Close(dst, src *Binary, radius int) {
	if radius <= 0 {
		copyBinary(dst, src)
		return
	}
	m.pass(dst, src, radius, 1)
	m.pass(dst, dst, radius, 2*radius+1)
}

// pass writes into dst the pixels of src whose (2r+1)x(2r+1) window
// holds at least need foreground pixels (r > 0); dst may be src. Any
// nonzero source byte counts as foreground and dst holds 0 or 1.
//
// A window without foreground yields background for every need >= 1,
// so rows of the sparse light maps the dark pipeline closes are mostly
// settled wholesale: an all-zero source row clears its horizontal
// output, and an output row whose vertical window meets no live row is
// cleared without touching the counts.
func (m *Morph) pass(dst, src *Binary, r, need int) {
	w, h := src.W, src.H
	n := int32(need)
	m.tmp.Reset(w, h)
	if cap(m.live) < h {
		m.live = make([]bool, h)
	}
	live := m.live[:h]
	if cap(m.zero) < w {
		m.zero = make([]uint8, w)
	}
	zero := m.zero[:w]
	// Horizontal: slide a running count along each row.
	for y := 0; y < h; y++ {
		in := src.Pix[y*w : (y+1)*w]
		out := m.tmp.Pix[y*w : (y+1)*w]
		if bytes.Equal(in, zero) {
			clear(out)
			live[y] = false
			continue
		}
		var c int32
		for x := 0; x < r && x < w; x++ {
			c += nz(in[x])
		}
		var any uint8
		for x := range out {
			if x+r < w {
				c += nz(in[x+r])
			}
			if x > r {
				c -= nz(in[x-r-1])
			}
			v := nz8(c >= n)
			out[x] = v
			any |= v
		}
		live[y] = any != 0
	}
	// Vertical: one running count per column, advanced a row at a
	// time so every access stays row-contiguous; only live rows enter
	// or leave the counts. The horizontal output is 0 or 1, so it is
	// added as is.
	if cap(m.cnt) < w {
		m.cnt = make([]int32, w)
	}
	cnt := m.cnt[:w]
	clear(cnt)
	tmp := m.tmp.Pix
	inWindow := 0 // live rows inside the current vertical window
	add := func(y int, d int32) {
		for x, v := range tmp[y*w : (y+1)*w] {
			cnt[x] += d * int32(v)
		}
	}
	for y := 0; y < r && y < h; y++ {
		if live[y] {
			add(y, 1)
			inWindow++
		}
	}
	dst.Reset(w, h)
	for y := 0; y < h; y++ {
		if y+r < h && live[y+r] {
			add(y+r, 1)
			inWindow++
		}
		if y > r && live[y-r-1] {
			add(y-r-1, -1)
			inWindow--
		}
		out := dst.Pix[y*w : (y+1)*w]
		if inWindow == 0 {
			clear(out)
			continue
		}
		for x, c := range cnt {
			out[x] = nz8(c >= n)
		}
	}
}

// nz is 1 for a foreground byte and 0 for background.
func nz(v uint8) int32 {
	if v != 0 {
		return 1
	}
	return 0
}

// nz8 is the binary pixel value of a predicate.
func nz8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// copyBinary resizes dst to src and copies its pixels (a no-op when
// dst is src).
func copyBinary(dst, src *Binary) {
	if dst == src {
		return
	}
	dst.Reset(src.W, src.H)
	copy(dst.Pix, src.Pix)
}

// morph runs one kernel application into a fresh image.
func morph(b *Binary, radius, need int) *Binary {
	if radius <= 0 {
		return b.Clone()
	}
	out := NewBinary(b.W, b.H)
	new(Morph).pass(out, b, radius, need)
	return out
}

// Dilate grows foreground regions by the structuring-element radius.
func Dilate(b *Binary, radius int) *Binary { return morph(b, radius, 1) }

// Erode shrinks foreground regions by the structuring-element radius.
func Erode(b *Binary, radius int) *Binary { return morph(b, radius, 2*radius+1) }

// Close performs dilation followed by erosion: it fills holes and
// joins nearby fragments without (much) growing blob extents. The
// paper's pipeline (Fig. 4) applies closing right after downsampling.
func Close(b *Binary, radius int) *Binary {
	out := NewBinary(b.W, b.H)
	new(Morph).Close(out, b, radius)
	return out
}

// Open performs erosion followed by dilation, removing isolated
// foreground specks smaller than the structuring element.
func Open(b *Binary, radius int) *Binary {
	out := Erode(b, radius)
	if radius > 0 {
		new(Morph).pass(out, out, radius, 1)
	}
	return out
}
