package pipeline

import (
	"context"
	"time"

	"advdet/internal/haar"
	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/par"
	"advdet/internal/svm"
)

// hogScan describes one multi-scale HOG+SVM sliding-window scan: the
// shared-cache, worker-pool equivalent of the serial scanPyramid
// reference. The pyramid levels are resized concurrently, each
// level's gradient/cell-histogram stages are computed once into a
// read-only hog.FeatureMap, and window rows are fanned out across the
// pool, with every row writing its own output slot so the assembled
// detection list is identical for every worker count.
//
// When every scan position lies on the cell grid (stride a multiple
// of the cell size — true for all shipped detectors), the scan takes
// the block-response fast path: each level's blocks are L2Hys-
// normalized exactly once into a hog.BlockGrid and windows are scored
// against the svm.BlockModel — the software rendition of the PL
// datapath, whose HOG memories are written once per frame and only
// read by the window evaluators. The fast path scores with early
// reject: each window's block partials are accumulated in descending
// weight-mass order and the window is abandoned as soon as the
// remaining blocks provably cannot lift the margin above the
// threshold. Surviving windows re-sum their stashed partials in
// canonical order, so reported margins are bitwise identical to the
// full svm.BlockModel.WindowMargin evaluation.
//
// Unaligned strides keep the descriptor path with its per-window
// Cfg.Extract crop fallback.
type hogScan struct {
	Cfg        hog.Config
	Model      *svm.Model
	WinW, WinH int
	Stride     int
	Scale      float64
	Thresh     float64
	Kind       Kind
	// NoBlockResponse forces the per-window descriptor path. The
	// block-response engine is on by default; benchmarks and
	// equivalence tests use this to compare the two.
	NoBlockResponse bool
	// Prefilter, when non-nil and trained at exactly (WinW, WinH),
	// integral-image-rejects windows before any block scoring. A
	// cascade trained at a different window geometry is ignored: its
	// scores would be evaluated over the wrong pixels.
	Prefilter *haar.Cascade
	// Temporal, when non-nil, carries the feature/block stack
	// across frames and recomputes only what the frame's dirty tiles
	// invalidate. Output stays byte-identical to a cold scan; the cache
	// serves one frame sequence and must not be shared across
	// detectors or concurrent scans.
	Temporal *TemporalCache
}

// rowTask addresses one window row of one pyramid level.
type rowTask struct{ level, y int }

// rowScratch is the per-worker scratch of the window-row loop: the
// descriptor buffer the fallback path assembles into and the partial-
// margin stash of the early-reject path.
type rowScratch struct {
	desc    []float64
	partial []float64
}

// ScanTimings breaks one multi-scale scan into its wall-clock stages,
// mirroring the paper's Fig. 2 datapath: pyramid resize, gradient +
// cell-histogram feature maps, haar prefilter integrals, block
// normalization, lattice setup, and the window scoring sweep.
// Detectors fill it via DetectTimedCtx so the telemetry layer can
// attribute the vehicle-scan budget to sub-stages.
type ScanTimings struct {
	Resize    time.Duration // pyramid level resizing
	Feature   time.Duration // gradient + cell-histogram feature maps
	Prefilter time.Duration // haar prefilter integral images
	Blocks    time.Duration // block L2Hys normalization (block grids)
	Response  time.Duration // per-level anchor lattice setup and validation
	Windows   time.Duration // window scoring + detection assembly
	Temporal  time.Duration // tile fingerprinting + dirty-mask dilation
	// TileHits/TileMisses/TileRefreshes are the temporal cache's tile
	// accounting for this scan (all zero without a cache): reused,
	// content-changed, and no-comparable-fingerprint tiles.
	TileHits      int
	TileMisses    int
	TileRefreshes int
	// BlockPath reports whether the block-response fast path ran.
	BlockPath bool
	// TemporalPath reports whether a temporal cache served the scan.
	TemporalPath bool
}

// scanPositions counts the window positions of a scan axis.
func scanPositions(size, win, stride int) int {
	if size < win {
		return 0
	}
	return (size-win)/stride + 1
}

// run scans every pyramid level of g with the given worker count,
// returning detections in deterministic level-major, raster order.
//
// lint:hotpath
func (s hogScan) run(ctx context.Context, g *img.Gray, workers int) ([]Detection, error) {
	return s.runTimed(ctx, g, workers, nil)
}

// runTimed is run with optional per-stage wall-clock attribution
// (tm may be nil; it is written only on success).
func (s hogScan) runTimed(ctx context.Context, g *img.Gray, workers int, tm *ScanTimings) (dets []Detection, err error) {
	workers = par.Workers(workers)
	sc := borrowScanScratch()
	defer releaseScanScratch(sc)
	tc := s.Temporal
	if tc != nil {
		// An abandoned scan (cancellation, validation failure) leaves
		// cached grids out of step with the already-updated tile
		// fingerprints; the next frame must scan cold rather than trust
		// them.
		defer func() {
			if err != nil {
				tc.Invalidate()
			}
		}()
	}

	var t ScanTimings
	timed := tm != nil
	var last time.Time
	if timed {
		last = time.Now()
	}
	lap := func(d *time.Duration) {
		if !timed {
			return
		}
		now := time.Now()
		*d += now.Sub(last)
		last = now
	}

	// Stage 1: pyramid levels, resized concurrently (each level reads
	// only the source frame) into buffers reused across frames. Level 0
	// is always the source size, so it aliases the frame itself instead
	// of copying it — the scan only reads levels, and the alias is
	// swapped back out before the scratch returns to the pool.
	sizes := img.PyramidSizes(g.W, g.H, s.Scale, s.WinW, s.WinH)
	nl := len(sizes)
	sc.setLevels(nl)
	// The per-level stack lives in the pooled scratch — or, with a
	// temporal cache, in the cache's own arenas, so that no later
	// scratch borrow can overwrite state that must survive the frame
	// boundary. These views are what both stages read and write.
	maps, grids := sc.maps, sc.grids
	if tc != nil {
		tc.begin(temporalSig{
			model: s.Model, cfg: s.Cfg,
			winW: s.WinW, winH: s.WinH, stride: s.Stride,
			scale: s.Scale, thresh: s.Thresh,
			noBlock: s.NoBlockResponse,
			pref:    s.Prefilter, w: g.W, h: g.H,
		}, nl)
		maps, grids = tc.maps, tc.grids
	}
	first := 0
	if nl > 0 && sizes[0][0] == g.W && sizes[0][1] == g.H {
		sc.level0 = sc.levels[0]
		sc.level0Aliased = true
		sc.levels[0] = g
		first = 1
	}
	if err := par.ForEach(ctx, workers, nl-first, func(i int) {
		i += first
		sc.levels[i] = img.ResizeGrayInto(sc.levels[i], g, sizes[i][0], sizes[i][1])
	}); err != nil {
		return nil, err
	}
	lap(&t.Resize)

	// The fast path applies when every scan position is cell-aligned,
	// so each window's blocks exist in the level block grid.
	cell := s.Cfg.CellSize
	bw, bh := s.Cfg.BlocksFor(s.WinW, s.WinH)
	blockLen := s.Cfg.BlockCells * s.Cfg.BlockCells * s.Cfg.Bins
	useBlocks := !s.NoBlockResponse && s.Stride%cell == 0 && bw > 0 && bh > 0 &&
		sc.bm.Init(s.Model, bw, bh, blockLen) == nil
	// An Init mismatch (model length vs window geometry) falls through
	// to the descriptor path, where Model.Margin reports the wiring
	// bug exactly as it always has.
	usePref := false
	if s.Prefilter != nil {
		pw, ph := s.Prefilter.Window()
		usePref = pw == s.WinW && ph == s.WinH
	}

	// Stage 2: per level, one shared feature cache (row-parallel); on
	// the fast path also the normalized block grid, computed once per
	// frame instead of once per window, and its anchor lattice.
	for i := 0; i < nl; i++ {
		level := sc.levels[i]
		fm := maps[i]
		// Temporal refresh mode: fingerprint the level's tiles and
		// decide whether its cached stack can be reused wholesale
		// (clean), refreshed cell-by-cell (partial), or must be
		// recomputed (full — also the only mode without a cache).
		mode := tcFull
		if tc != nil {
			mode = tc.observe(i, level, s.Cfg)
			lap(&t.Temporal)
		}
		switch mode {
		case tcClean:
			// Every tile fingerprint matched: the cached feature map is
			// bitwise what ComputeCtx would produce.
		case tcPartial:
			if err := fm.ComputeDirtyCtx(ctx, s.Cfg, level, workers, tc.cellMask); err != nil {
				return nil, err
			}
		default:
			if err := fm.ComputeCtx(ctx, s.Cfg, level, workers, &sc.hs); err != nil {
				return nil, err
			}
		}
		lap(&t.Feature)
		// Reset the level's lattice first: a level that skips the fast
		// path below must never be read through a previous frame's
		// lattice.
		sc.lats[i] = svm.Lattice{}
		sc.nax[i] = 0
		if usePref && level.W >= s.WinW && level.H >= s.WinH {
			sc.its[i].Compute(level)
			lap(&t.Prefilter)
		}
		if !useBlocks {
			continue
		}
		nax := scanPositions(level.W, s.WinW, s.Stride)
		nay := scanPositions(level.H, s.WinH, s.Stride)
		if nax == 0 || nay == 0 {
			continue
		}
		bg := grids[i]
		switch mode {
		case tcClean:
			// Cached grid current; nothing to normalize.
		case tcPartial:
			cw, ch := s.Cfg.CellsFor(level.W, level.H)
			pnbx, pnby := bg.Dims()
			tc.dirtyBlocks(s.Cfg, cw, ch, pnbx, pnby)
			if err := bg.ComputeDirtyCtx(ctx, fm, workers, tc.blockMask[:pnbx*pnby]); err != nil {
				return nil, err
			}
		default:
			if err := bg.ComputeCtx(ctx, fm, workers); err != nil {
				return nil, err
			}
		}
		lap(&t.Blocks)
		nbx, nby := bg.Dims()
		lat := svm.Lattice{
			NBX: nbx, NBY: nby,
			StepX: s.Stride / cell, StepY: s.Stride / cell,
			NAX: nax, NAY: nay,
			BlockStride: s.Cfg.BlockStride,
		}
		if err := sc.bm.CheckLattice(lat, len(bg.Data())); err != nil {
			return nil, err
		}
		// Margins are computed on demand in stage 3 straight from the
		// block grid: precomputing every anchor's partials would spend
		// the work the early exit exists to skip.
		sc.lats[i] = lat
		sc.nax[i] = nax
		lap(&t.Response)
	}

	// Stage 3: one task per window row across all levels, pre-sized
	// from the pyramid geometry; each task owns an output slot, so
	// assembly order is independent of worker scheduling.
	nt := 0
	for i := 0; i < nl; i++ {
		if sc.levels[i].W < s.WinW {
			continue
		}
		nt += scanPositions(sc.levels[i].H, s.WinH, s.Stride)
	}
	tasks, results := sc.setTasks(nt)
	k := 0
	for i := 0; i < nl; i++ {
		level := sc.levels[i]
		if level.W < s.WinW {
			continue
		}
		for y := 0; y+s.WinH <= level.H; y += s.Stride {
			tasks[k] = rowTask{i, y}
			k++
		}
	}
	descLen := s.Cfg.DescriptorLen(s.WinW, s.WinH)
	// Window-row reuse: with a cache holding the previous scan's rows
	// (same signature, so the task list is identical), any row whose
	// inputs are untouched this frame produces byte-identical
	// detections — its scores are pure functions of blocks and pixels
	// the dirty masks prove unchanged — so stage 3 serves the cached
	// slice instead of rescoring the row.
	serveRows := tc != nil && tc.rowsValid && len(tc.rowDets) == nt
	err = par.ForEachLocal(ctx, workers, nt,
		func() *rowScratch { return new(rowScratch) },
		func(ti int, rs *rowScratch) {
			rt := tasks[ti]
			if serveRows && tc.rowServable(s.Cfg, rt.level, rt.y, s.WinH, sc.nax[rt.level] > 0, bh) {
				results[ti] = tc.rowDets[ti]
				return
			}
			level, fm := sc.levels[rt.level], maps[rt.level]
			fx := float64(g.W) / float64(level.W)
			fy := float64(g.H) / float64(level.H)
			var dets []Detection
			box := func(x int) img.Rect {
				return img.Rect{
					X0: int(float64(x) * fx),
					Y0: int(float64(rt.y) * fy),
					X1: int(float64(x+s.WinW) * fx),
					Y1: int(float64(rt.y+s.WinH) * fy),
				}
			}
			var it *haar.Integral
			if usePref {
				it = sc.its[rt.level]
			}
			pass := func(x int) bool {
				return it == nil || s.Prefilter.AcceptAt(it, x, rt.y)
			}
			if nax := sc.nax[rt.level]; nax > 0 {
				// Block-response fast path: zero copies, zero
				// normalization, zero allocation per window.
				ay := rt.y / s.Stride
				lat := sc.lats[rt.level]
				blocks := grids[rt.level].Data()
				// Per-window reuse inside a partially dirty level: a
				// window whose cell rectangle (block span and pixel
				// span, whichever is larger) the prefix proves clean
				// kept its inputs, so last frame's verdict stands and
				// its cached detection — if it had one — is copied
				// instead of rescoring. Windows in the dirty region
				// fall through to the early-reject scoring below.
				rowPartial := serveRows && tc.mode[rt.level] == tcPartial
				var cached []Detection
				cj := 0
				if rowPartial {
					cached = tc.rowDets[ti]
				}
				spanCX := (bw-1)*s.Cfg.BlockStride + s.Cfg.BlockCells
				if p := (s.WinW + cell - 1) / cell; p > spanCX {
					spanCX = p
				}
				spanCY := (bh-1)*s.Cfg.BlockStride + s.Cfg.BlockCells
				if p := (s.WinH + cell - 1) / cell; p > spanCY {
					spanCY = p
				}
				cy0 := rt.y / cell
				serve := func(ax int) bool {
					if !rowPartial {
						return false
					}
					cx0 := ax * lat.StepX
					if !tc.cellRectClean(rt.level, cx0, cy0, cx0+spanCX, cy0+spanCY) {
						return false
					}
					// Cached rows are in ascending-x order and box is a
					// pure function of ax, so a pointer walk pairs this
					// window with its previous detection, if any.
					x0 := int(float64(ax*s.Stride) * fx)
					for cj < len(cached) && cached[cj].Box.X0 < x0 {
						cj++
					}
					if cj < len(cached) && cached[cj].Box.X0 == x0 {
						dets = append(dets, cached[cj]) // lint:alloc detections are rare post-threshold events; no useful pre-size exists
						cj++
					}
					return true
				}
				// Early reject: accumulate partials in descending
				// weight-mass order, bail when the bound closes.
				if cap(rs.partial) < bw*bh {
					rs.partial = make([]float64, bw*bh) // lint:alloc once per worker per scan
				}
				for ax := 0; ax < nax; ax++ {
					if serve(ax) {
						continue
					}
					if !pass(ax * s.Stride) {
						continue
					}
					m, rejected := sc.bm.EarlyMarginAt(blocks, lat, ax, ay, s.Thresh, rs.partial[:bw*bh])
					if !rejected && m > s.Thresh {
						dets = append(dets, Detection{Box: box(ax * s.Stride), Score: m, Kind: s.Kind}) // lint:alloc detections are rare post-threshold events; no useful pre-size exists
					}
				}
			} else {
				for x := 0; x+s.WinW <= level.W; x += s.Stride {
					if !pass(x) {
						continue
					}
					if cap(rs.desc) < descLen {
						rs.desc = make([]float64, descLen) // lint:alloc once per worker per scan
					}
					desc := fm.Descriptor(x, rt.y, s.WinW, s.WinH, rs.desc[:descLen])
					if desc == nil {
						// Window off the cell grid (stride not a
						// multiple of the cell size, or partial border
						// cells): fall back to direct extraction.
						desc = s.Cfg.Extract(level.SubImage(img.Rect{X0: x, Y0: rt.y, X1: x + s.WinW, Y1: rt.y + s.WinH}))
					}
					if m := s.Model.Margin(desc); m > s.Thresh {
						dets = append(dets, Detection{Box: box(x), Score: m, Kind: s.Kind}) // lint:alloc detections are rare post-threshold events; no useful pre-size exists
					}
				}
			}
			results[ti] = dets
		})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, r := range results {
		total += len(r)
	}
	all := make([]Detection, 0, total)
	for _, r := range results {
		all = append(all, r...)
	}
	if tc != nil {
		tc.storeRows(results)
	}
	lap(&t.Windows)
	if timed {
		t.BlockPath = useBlocks
		if tc != nil {
			t.TemporalPath = true
			fs := tc.FrameStats()
			t.TileHits, t.TileMisses, t.TileRefreshes = fs.Hits, fs.Misses, fs.Refreshes
		}
		*tm = t
	}
	return all, nil
}
