package pipeline

import (
	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/svm"
)

// TemporalCache carries one detector's HOG stack and window rows
// across frames, so a standalone scan only recomputes what the camera
// changed. It holds, for a single detector, the two halves an adaptive
// System keeps apart: a persistent stack (one per stream there) and a
// RowCache (one per HOG detector there).
//
// Each pyramid level is split into cell-aligned tiles (hog.TileMap),
// fingerprinted per frame, and the dirty tiles are dilated outward —
// one-cell halo to cells, block span to blocks, window span to window
// rows — so every refreshed value sees exactly the inputs a cold scan
// would read, making cached output byte-identical to a full recompute
// (up to 64-bit fingerprint collisions; see hog.TileMap). The
// full-rescan path is always kept: any configuration or geometry
// change falls back to a cold scan of the affected state.
//
// A TemporalCache is owned, never pooled: its contents are keyed to
// one frame sequence, so it must never be shared by two detectors or
// two streams. The zero value is not ready; use NewTemporalCache. Not
// safe for concurrent use.
type TemporalCache struct {
	stack *hogStack
	rows  RowCache
}

// TemporalStats is the tile accounting of a temporal cache: Hits are
// tiles reused unchanged, Misses are tiles whose content changed since
// the previous frame, Refreshes are tiles hashed with no comparable
// fingerprint (first frame, invalidation, geometry change). Frames
// counts the frames the stack was built for.
type TemporalStats struct {
	Frames    int
	Hits      int
	Misses    int
	Refreshes int
}

// HitRate returns the fraction of tiles reused unchanged, in [0, 1];
// 0 when no tiles have been observed.
func (s TemporalStats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Refreshes
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// stackSig keys a persistent stack's cross-frame state outside the
// pixels themselves: any field changing means the kept maps and grids
// may describe different geometry, so every fingerprint is discarded.
// The frame dimensions are included because every level's geometry
// derives from them — which also covers the shrink seam where a
// narrower frame keeps the same tile count while the cell grid
// changes shape.
type stackSig struct {
	cfg   hog.Config
	scale float64
	w, h  int
}

// temporalSig keys a RowCache: any field changing means the cached
// rows may come from a different model, window lattice or threshold,
// so they are not served.
type temporalSig struct {
	model              *svm.Model
	cfg                hog.Config
	winW, winH, stride int
	scale, thresh      float64
	noBlock            bool
	kind               Kind
	w, h               int
}

// Per-level refresh modes derived from the tile fingerprints.
const (
	tcFull    = iota // recompute the level's whole stack
	tcPartial        // refresh only dirty cells/blocks/windows
	tcClean          // reuse everything; nothing changed
)

// NewTemporalCache returns an empty cache using the default 64-px
// tile size. Attach it to one detector's Temporal field.
func NewTemporalCache() *TemporalCache {
	return &TemporalCache{stack: newTemporalStack()}
}

// newTemporalStack returns an empty persistent stack.
func newTemporalStack() *hogStack {
	return &hogStack{tc: &tileCache{tile: hog.DefaultTileSize}}
}

// Stats returns the cumulative tile accounting.
func (tc *TemporalCache) Stats() TemporalStats { return tc.stack.tc.stats }

// FrameStats returns the tile accounting of the most recent scan.
func (tc *TemporalCache) FrameStats() TemporalStats { return tc.stack.tc.frame }

// Invalidate discards every fingerprint and cached grid: the next
// scan is cold. Callers invalidate on reconfiguration and on any
// out-of-band reason to distrust cross-frame continuity; configuration
// and geometry changes are detected automatically.
func (tc *TemporalCache) Invalidate() { tc.stack.invalidate() }

// tileCache is the cross-frame half of a persistent hogStack: per
// level, the tile fingerprints of the last frame that built the level,
// and this frame's refresh mode and dirty masks.
type tileCache struct {
	tile  int
	sig   stackSig
	valid bool

	tiles []*hog.TileMap

	// Per-level refresh bookkeeping: mode is this frame's refresh mode;
	// for tcPartial levels cells holds the dirty-cell mask (with its
	// one-cell halo) and cellPrefix its integral image, with cw/ch the
	// cell-grid dims, so a late block-grid refresh can dilate the mask
	// and stage 3 answers "is this window's cell rectangle clean?" in
	// O(1) per window.
	mode       []int
	cw, ch     []int
	cells      [][]bool
	cellPrefix [][]int32
	blockMask  []bool // transient dirty-block mask, reused across levels

	frame TemporalStats // last frame's tile accounting
	stats TemporalStats // cumulative since construction
}

// check compares the signature of the frame about to be built with
// the kept one: a mismatch (or an explicit invalidation) discards every
// fingerprint, so the frame is built in full.
func (tc *tileCache) check(sig stackSig) {
	if !tc.valid || sig != tc.sig {
		tc.sig = sig
		tc.valid = true
		for _, t := range tc.tiles {
			t.Invalidate()
		}
	}
}

// beginFrame resets the per-frame accounting and refresh modes.
func (tc *tileCache) beginFrame() {
	for i := range tc.mode {
		tc.mode[i] = tcFull
	}
	tc.frame = TemporalStats{Frames: 1}
	tc.stats.Frames++
}

// observe fingerprints level i and derives its refresh mode. For
// tcPartial the level's dirty-cell mask is left in tc.cells[i] and its
// integral image in tc.cellPrefix[i].
func (tc *tileCache) observe(i int, level *img.Gray, c hog.Config) int {
	for len(tc.tiles) <= i {
		tc.tiles = append(tc.tiles, hog.NewTileMap(tc.tile))
		tc.mode = append(tc.mode, tcFull)
		tc.cw = append(tc.cw, 0)
		tc.ch = append(tc.ch, 0)
		tc.cells = append(tc.cells, nil)
		tc.cellPrefix = append(tc.cellPrefix, nil)
	}
	mode := tc.observeTiles(i, level, c)
	tc.mode[i] = mode
	if mode == tcPartial {
		cw, ch := tc.cw[i], tc.ch[i]
		pre := growI32(tc.cellPrefix[i], (cw+1)*(ch+1))
		tc.cellPrefix[i] = pre
		for x := 0; x <= cw; x++ {
			pre[x] = 0
		}
		for y := 0; y < ch; y++ {
			rowSum := int32(0)
			src := tc.cells[i][y*cw : (y+1)*cw]
			dst := pre[(y+1)*(cw+1):]
			prev := pre[y*(cw+1):]
			dst[0] = 0
			for x := 0; x < cw; x++ {
				if src[x] {
					rowSum++
				}
				dst[x+1] = prev[x+1] + rowSum
			}
		}
	}
	return mode
}

// observeTiles runs the tile fingerprint pass behind observe.
func (tc *tileCache) observeTiles(i int, level *img.Gray, c hog.Config) int {
	if !c.AlignedTile(tc.tile) {
		// Tiles off the cell lattice would make the tile-to-cell
		// dilation unsound; hash nothing and scan cold.
		return tcFull
	}
	misses, refreshes, total := tc.tiles[i].Update(level)
	tc.frame.Hits += total - misses - refreshes
	tc.frame.Misses += misses
	tc.frame.Refreshes += refreshes
	tc.stats.Hits += total - misses - refreshes
	tc.stats.Misses += misses
	tc.stats.Refreshes += refreshes
	dirty := misses + refreshes
	switch {
	case dirty == 0:
		return tcClean
	case dirty == total || !c.SupportsDirtyRefresh():
		return tcFull
	}
	cw, ch := c.CellsFor(level.W, level.H)
	if cw == 0 || ch == 0 {
		return tcFull
	}
	tc.cw[i], tc.ch[i] = cw, ch
	tc.cells[i] = growBool(tc.cells[i], cw*ch)
	tc.tiles[i].DirtyCellMask(c, cw, ch, tc.cells[i])
	return tcPartial
}

// cellRectClean reports whether the half-open cell rectangle
// [cx0,cx1) x [cy0,cy1) of a tcPartial level contains no dirty cell
// this frame, clamped to the full-cell grid. A rectangle entirely off
// the grid answers false: no flag covers it, so callers must rescore.
// Ragged-edge pixels beyond the last full cell are safe to clamp away
// because hog.TileMap.DirtyCellMask clamps their tiles onto the last
// cell row/column, which a window reaching the ragged edge always
// overlaps.
//
// lint:hotpath
func (tc *tileCache) cellRectClean(level, cx0, cy0, cx1, cy1 int) bool {
	cw, ch := tc.cw[level], tc.ch[level]
	if cx1 > cw {
		cx1 = cw
	}
	if cy1 > ch {
		cy1 = ch
	}
	if cx0 >= cx1 || cy0 >= cy1 {
		return false
	}
	p := tc.cellPrefix[level]
	w := cw + 1
	return p[cy1*w+cx1]-p[cy1*w+cx0]-p[cy0*w+cx1]+p[cy0*w+cx0] == 0
}

// dirtyBlocks dilates level i's dirty-cell mask to its nbx x nby
// block mask.
func (tc *tileCache) dirtyBlocks(i int, c hog.Config, nbx, nby int) []bool {
	tc.blockMask = growBool(tc.blockMask, nbx*nby)
	hog.DilateCellsToBlocks(c, tc.cells[i], tc.cw[i], nbx, nby, tc.blockMask)
	return tc.blockMask
}

// rowServable reports whether one window row's cached detections are
// bitwise current. The row is servable when its level is wholly clean,
// or when none of the cell rows its windows read is dirty this frame —
// the larger of the block span (block row b reads cell rows [b,
// b+BlockCells)) and the raw pixel span (the descriptor fallback reads
// window pixels, whose dirt the tile-to-cell halo maps onto the
// covering cell rows). Row granularity is conservative —
// the whole cell-row band must be clean, not just the window's columns
// — an O(1) prefix query; stage 3 falls back to per-window queries
// when the band is dirty but individual windows sit clear of it.
//
// lint:hotpath
func (tc *tileCache) rowServable(c hog.Config, level, y, winH int, blockPath bool, bh int) bool {
	switch tc.mode[level] {
	case tcClean:
		return true
	case tcPartial:
		cy0 := y / c.CellSize
		cy1 := (y + winH + c.CellSize - 1) / c.CellSize
		if blockPath {
			if b := cy0 + (bh-1)*c.BlockStride + c.BlockCells; b > cy1 {
				cy1 = b
			}
		}
		return tc.cellRectClean(level, 0, cy0, tc.cw[level], cy1)
	default:
		return false
	}
}

// RowCache holds one HOG detector's stage-3 output — one detection
// slice per window-row task — for reuse on the next frame. Rows are
// served only against the persistent stack they were scored on, and
// only if this detector scanned the immediately previous frame the
// stack was built for, with the same signature: the stack's dirty
// masks describe the change from that frame to this one, so rows
// stored on an older frame (a day/dusk switch, a dropped vehicle
// frame) must rescore. The zero value is ready. A RowCache belongs to
// one detector of one stream and is not safe for concurrent use.
type RowCache struct {
	sig    temporalSig
	stack  *hogStack
	serial uint64
	rows   [][]Detection
}

// servable reports whether the cached rows may serve a scan with
// signature sig and nt row tasks over st's current frame. Rows are
// only ever stored against a persistent stack, so a match implies one.
func (rc *RowCache) servable(sig temporalSig, st *hogStack, nt int) bool {
	return rc != nil && rc.stack == st && rc.serial+1 == st.serial &&
		rc.sig == sig && len(rc.rows) == nt
}

// store retains stage 3's per-row output. Only the slice headers are
// copied out of the pooled results arena; the backing arrays are
// freshly appended by each scan, never pooled, so holding them across
// frames is safe.
func (rc *RowCache) store(sig temporalSig, st *hogStack, results [][]Detection) {
	rc.sig, rc.stack, rc.serial = sig, st, st.serial
	if cap(rc.rows) < len(results) {
		rc.rows = make([][]Detection, len(results)) // lint:alloc sized once per signature
	}
	rc.rows = rc.rows[:len(results)]
	copy(rc.rows, results)
}

// growBool returns buf resized to n entries, reusing its backing
// array when possible. Contents are unspecified; callers overwrite.
func growBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n) // lint:alloc grows once to the largest level, then reused across frames
	}
	return buf[:n]
}
