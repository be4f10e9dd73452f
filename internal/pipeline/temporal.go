package pipeline

import (
	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/svm"
)

// TemporalCache carries one detector's feature/block stack across
// frames so a scan only recomputes what the camera changed. Each
// pyramid level is split into cell-aligned tiles (hog.TileMap),
// fingerprinted per frame, and the dirty tiles are dilated outward —
// one-cell halo to cells, block span to blocks, window span to window
// rows — so every refreshed value sees exactly the inputs a cold scan
// would read, making cached output byte-identical to a full recompute
// (up to 64-bit fingerprint collisions; see hog.TileMap). The
// full-rescan path is always kept: any configuration or geometry
// change falls back to a cold scan of the affected state.
//
// Where scanScratch is borrowed from a process-wide pool per scan, a
// TemporalCache is owned: it persists one stream's per-level feature
// maps, block grids and window-row detections between frames and must
// never be shared — by two detectors, or by two streams — because its
// contents are keyed to one frame sequence. The zero value is not
// ready; use NewTemporalCache. Not safe for concurrent use.
type TemporalCache struct {
	tile  int
	sig   temporalSig
	valid bool

	// Per-level cached state, owned here (never pooled) so no later
	// scratch borrow can scribble over it.
	tiles []*hog.TileMap
	maps  []*hog.FeatureMap
	grids []*hog.BlockGrid

	// Transient per-level dirty masks, reused across levels and frames.
	cellMask  []bool
	blockMask []bool

	// Per-level refresh bookkeeping for the window reuse pass: mode is
	// this frame's refresh mode per level; for tcPartial levels
	// cellPrefix holds an integral image over that level's dirty-cell
	// mask (the mask itself is a transient shared across levels), with
	// cw/ch its cell-grid dims, so stage 3 answers "is this window's
	// cell rectangle clean?" in O(1) per window.
	mode       []int
	cw, ch     []int
	cellPrefix [][]int32

	// Cached stage-3 output: one detection slice per window-row task,
	// valid only while rowsValid (same signature, previous scan
	// completed). The task list is a pure function of the signature,
	// so the task index is stable across frames.
	rowDets   [][]Detection
	rowsValid bool

	frame TemporalStats // last frame's tile accounting
	stats TemporalStats // cumulative since construction / Invalidate
}

// TemporalStats is the tile accounting of a temporal cache: Hits are
// tiles reused unchanged, Misses are tiles whose content changed since
// the previous frame, Refreshes are tiles hashed with no comparable
// fingerprint (first frame, invalidation, geometry change). Frames
// counts scans served.
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

// temporalSig is the cache key outside the pixels themselves: any
// field changing means cached state may describe different geometry or
// a different model, so the whole cache is discarded. The frame
// dimensions are included because every level's geometry derives from
// them — which also covers the shrink seam where a narrower frame
// keeps the same tile count while the cell grid changes shape.
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
	return &TemporalCache{tile: hog.DefaultTileSize}
}

// Stats returns the cumulative tile accounting.
func (tc *TemporalCache) Stats() TemporalStats { return tc.stats }

// FrameStats returns the tile accounting of the most recent scan.
func (tc *TemporalCache) FrameStats() TemporalStats { return tc.frame }

// Invalidate discards every fingerprint and cached grid: the next
// scan is cold. Callers invalidate on reconfiguration and on any
// out-of-band reason to distrust cross-frame continuity; configuration
// and geometry changes are detected automatically.
func (tc *TemporalCache) Invalidate() {
	tc.valid = false
}

// begin opens one scan: a signature mismatch (or an explicit
// Invalidate) discards all cached state, and the per-level arenas are
// sized for nl levels with entries beyond nl invalidated — the same
// stale-state discipline as scanScratch.setLevels, because a pyramid
// that shrinks and regrows must not resurrect another geometry's
// fingerprints.
func (tc *TemporalCache) begin(sig temporalSig, nl int) {
	if !tc.valid || sig != tc.sig {
		tc.sig = sig
		tc.valid = true
		tc.rowsValid = false
		for i := range tc.tiles {
			tc.tiles[i].Invalidate()
		}
	}
	for len(tc.tiles) < nl {
		tc.tiles = append(tc.tiles, hog.NewTileMap(tc.tile))
		tc.maps = append(tc.maps, new(hog.FeatureMap))
		tc.grids = append(tc.grids, new(hog.BlockGrid))
		tc.mode = append(tc.mode, tcFull)
		tc.cw = append(tc.cw, 0)
		tc.ch = append(tc.ch, 0)
		tc.cellPrefix = append(tc.cellPrefix, nil)
	}
	for i := nl; i < len(tc.tiles); i++ {
		tc.tiles[i].Invalidate()
	}
	for i := 0; i < nl; i++ {
		tc.mode[i] = tcFull
	}
	tc.frame = TemporalStats{}
	tc.frame.Frames = 1
	tc.stats.Frames++
}

// observe fingerprints level i and derives its refresh mode. For
// tcPartial the cell mask (with its one-cell halo) is left in
// tc.cellMask[:cw*ch] for the feature refresh, and its integral image
// in tc.cellPrefix[i] for the stage-3 window reuse checks (the shared
// cell mask is overwritten by the next level's observe).
func (tc *TemporalCache) observe(i int, level *img.Gray, c hog.Config) int {
	mode := tc.observeTiles(i, level, c)
	tc.mode[i] = mode
	if mode == tcPartial {
		cw, ch := c.CellsFor(level.W, level.H)
		tc.cw[i], tc.ch[i] = cw, ch
		pre := growI32(tc.cellPrefix[i], (cw+1)*(ch+1))
		tc.cellPrefix[i] = pre
		for x := 0; x <= cw; x++ {
			pre[x] = 0
		}
		for y := 0; y < ch; y++ {
			rowSum := int32(0)
			src := tc.cellMask[y*cw : (y+1)*cw]
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
func (tc *TemporalCache) cellRectClean(level, cx0, cy0, cx1, cy1 int) bool {
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

// observeTiles runs the tile fingerprint pass behind observe.
func (tc *TemporalCache) observeTiles(i int, level *img.Gray, c hog.Config) int {
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
	tc.cellMask = growBool(tc.cellMask, cw*ch)
	tc.tiles[i].DirtyCellMask(c, cw, ch, tc.cellMask)
	return tcPartial
}

// dirtyBlocks dilates the current cell mask to the level's block mask,
// left in tc.blockMask[:nbx*nby].
func (tc *TemporalCache) dirtyBlocks(c hog.Config, cw, ch, nbx, nby int) {
	tc.blockMask = growBool(tc.blockMask, nbx*nby)
	hog.DilateCellsToBlocks(c, tc.cellMask[:cw*ch], cw, nbx, nby, tc.blockMask[:nbx*nby])
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
func (tc *TemporalCache) rowServable(c hog.Config, level, y, winH int, blockPath bool, bh int) bool {
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

// storeRows retains stage 3's per-row output for the next frame's
// reuse. Only the slice headers are copied out of the pooled results
// arena; the backing arrays are freshly appended by each scan, never
// pooled, so holding them across frames is safe.
func (tc *TemporalCache) storeRows(results [][]Detection) {
	if cap(tc.rowDets) < len(results) {
		tc.rowDets = make([][]Detection, len(results)) // lint:alloc sized once per signature
	}
	tc.rowDets = tc.rowDets[:len(results)]
	copy(tc.rowDets, results)
	tc.rowsValid = true
}

// growBool returns buf resized to n entries, reusing its backing
// array when possible. Contents are unspecified; callers overwrite.
func growBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n) // lint:alloc grows once to the largest level, then reused across frames
	}
	return buf[:n]
}
