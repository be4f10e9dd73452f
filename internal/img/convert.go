package img

// Color conversion follows full-range BT.601, computed in fixed point the
// way the RTL color-space converter does (16-bit intermediate, rounding
// shift), so software and the SoC model agree bit-for-bit.

func clamp8(v int32) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// lumaFix and crFix are the BT.601 luma and (unbiased) red-chroma
// expressions, coefficients scaled by 2^16 with rounding as in the
// image/color standard-library conversion. RGBToYCbCr, RGBToGray and
// the fused LightMask kernel share them, so every path computes the
// same bits.
func lumaFix(r, g, b int32) int32 { return (19595*r + 38470*g + 7471*b + 1<<15) >> 16 }

func crFix(r, g, b int32) int32 { return (32768*r - 27440*g - 5328*b + 1<<15) >> 16 }

// RGBToYCbCr converts an interleaved RGB image to planar full-range
// BT.601 YCbCr.
func RGBToYCbCr(m *RGB) *YCbCr {
	out := NewYCbCr(m.W, m.H)
	n := m.W * m.H
	for i := 0; i < n; i++ {
		r := int32(m.Pix[3*i])
		g := int32(m.Pix[3*i+1])
		b := int32(m.Pix[3*i+2])
		cb := (-11056*r - 21712*g + 32768*b + 1<<15) >> 16
		out.Y[i] = clamp8(lumaFix(r, g, b))
		out.Cb[i] = clamp8(cb + 128)
		out.Cr[i] = clamp8(crFix(r, g, b) + 128)
	}
	return out
}

// LightMask writes the dark pipeline's light-source mask of m into dst
// (resized to m's dimensions, reusing its pixel buffer): a pixel is
// foreground when its luma is at least lumaT and, with chroma set, its
// Cr lies in [crLo, crHi]. It is RGBToYCbCr followed by DualThreshold
// (or by Threshold on the luma plane without chroma) fused into one
// pass that computes only Y and Cr and allocates no planes; the
// expressions are the same, so the mask is bitwise identical.
//
// lint:hotpath
func LightMask(dst *Binary, m *RGB, lumaT uint8, chroma bool, crLo, crHi uint8) {
	dst.Reset(m.W, m.H)
	pix := m.Pix[:3*len(dst.Pix)]
	out := dst.Pix
	for i := range out {
		r := int32(pix[3*i])
		g := int32(pix[3*i+1])
		b := int32(pix[3*i+2])
		v := uint8(0)
		if clamp8(lumaFix(r, g, b)) >= lumaT {
			v = 1
			if chroma {
				if cr := clamp8(crFix(r, g, b) + 128); cr < crLo || cr > crHi {
					v = 0
				}
			}
		}
		out[i] = v
	}
}

// YCbCrToRGB converts planar full-range BT.601 YCbCr back to
// interleaved RGB.
func YCbCrToRGB(c *YCbCr) *RGB {
	out := NewRGB(c.W, c.H)
	n := c.W * c.H
	for i := 0; i < n; i++ {
		y := int32(c.Y[i]) << 16
		cb := int32(c.Cb[i]) - 128
		cr := int32(c.Cr[i]) - 128
		r := (y + 91881*cr + 1<<15) >> 16
		g := (y - 22554*cb - 46802*cr + 1<<15) >> 16
		b := (y + 116130*cb + 1<<15) >> 16
		out.Pix[3*i] = clamp8(r)
		out.Pix[3*i+1] = clamp8(g)
		out.Pix[3*i+2] = clamp8(b)
	}
	return out
}

// RGBToGray converts to 8-bit luma using the BT.601 weights.
func RGBToGray(m *RGB) *Gray {
	return RGBToGrayInto(nil, m)
}

// RGBToGrayInto is RGBToGray writing into dst, reusing dst's pixel
// buffer when it has sufficient capacity (dst may be nil). It returns
// the converted image — dst itself when dst is non-nil — so a
// per-frame conversion into a kept buffer allocates nothing in steady
// state.
func RGBToGrayInto(dst *Gray, m *RGB) *Gray {
	if dst == nil {
		dst = &Gray{}
	}
	n := m.W * m.H
	dst.W, dst.H = m.W, m.H
	if cap(dst.Pix) < n {
		dst.Pix = make([]uint8, n)
	}
	dst.Pix = dst.Pix[:n]
	for i := 0; i < n; i++ {
		r := int32(m.Pix[3*i])
		g := int32(m.Pix[3*i+1])
		b := int32(m.Pix[3*i+2])
		dst.Pix[i] = clamp8(lumaFix(r, g, b))
	}
	return dst
}

// GrayToRGB expands a grayscale image to three identical channels.
func GrayToRGB(g *Gray) *RGB {
	out := NewRGB(g.W, g.H)
	for i, p := range g.Pix {
		out.Pix[3*i], out.Pix[3*i+1], out.Pix[3*i+2] = p, p, p
	}
	return out
}
