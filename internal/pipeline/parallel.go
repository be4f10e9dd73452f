package pipeline

import (
	"context"
	"time"

	"advdet/internal/img"
	"advdet/internal/par"
	"advdet/internal/svm"
)

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
// cell-histogram feature maps, block normalization, lattice setup,
// and the window scoring sweep.
// Detectors fill it via DetectTimedCtx and DetectStackCtx so the
// telemetry layer can attribute the vehicle-scan budget to sub-stages.
// The resize, feature, blocks and temporal stages count only the part
// of the frame's HOG stack the scan built itself: on a shared stack
// the first scan of the frame carries them.
type ScanTimings struct {
	Resize   time.Duration // pyramid level resizing
	Feature  time.Duration // gradient + cell-histogram feature maps
	Blocks   time.Duration // block L2Hys normalization (block grids)
	Response time.Duration // per-level anchor lattice setup and validation
	Windows  time.Duration // window scoring + detection assembly
	Temporal time.Duration // tile fingerprinting + dirty-mask dilation
	// TileHits/TileMisses/TileRefreshes are the temporal cache's tile
	// accounting for the levels this scan built (all zero without a
	// cache): reused, content-changed, and no-comparable-fingerprint
	// tiles.
	TileHits      int
	TileMisses    int
	TileRefreshes int
	// BlockPath reports whether the block-response fast path ran.
	BlockPath bool
	// TemporalPath reports whether a temporal cache served the scan.
	TemporalPath bool
	// Prefilter is always zero: the scan has no prefilter stage. The
	// field remains only because the frozen perfbench module reads it.
	Prefilter time.Duration
}

// scanPositions counts the window positions of a scan axis.
func scanPositions(size, win, stride int) int {
	if size < win {
		return 0
	}
	return (size-win)/stride + 1
}

// scan runs the detector's multi-scale HOG+SVM sliding-window scan
// over the frame st holds, with the given worker count, returning
// detections in deterministic level-major, raster order, before NMS.
// tm may be nil; it is written only on success. rc may be nil; with a
// persistent st it serves window rows the frame left unchanged.
//
// Stages 1–2 — pyramid levels, feature maps, block grids — are read
// from st, which builds whatever no earlier scan of the frame built
// (hogStack.build); their time lands in this scan's timings. Window
// rows are then fanned out across the pool, with every row writing its
// own output slot so the assembled detection list is identical for
// every worker count.
//
// When every scan position lies on the cell grid (stride a multiple
// of the cell size — true for all shipped detectors), the scan takes
// the block-response fast path: windows are scored against the
// svm.BlockModel straight from each level's block grid — the software
// rendition of the PL datapath, whose HOG memories are written once
// per frame and only read by the window evaluators. The fast path
// scores with early reject: each window's block partials are
// accumulated in descending weight-mass order and the window is
// abandoned as soon as the remaining blocks provably cannot lift the
// margin above the threshold. Surviving windows re-sum their stashed
// partials in canonical order, so reported margins are bitwise
// identical to the full svm.BlockModel.WindowMargin evaluation.
//
// Unaligned strides keep the descriptor path with its per-window
// HOG.Extract crop fallback.
//
// lint:hotpath
func (d *HOGDetector) scan(ctx context.Context, st *hogStack, rc *RowCache, workers int, tm *ScanTimings) (dets []Detection, err error) {
	workers = par.Workers(workers)
	sc := borrowScanScratch()
	defer releaseScanScratch(sc)
	// An abandoned scan (cancellation, validation failure) may leave a
	// persistent stack's maps and grids out of step with its already
	// updated tile fingerprints; the next frame must build cold rather
	// than trust them.
	defer func() {
		if err != nil {
			st.invalidate()
		}
	}()

	var t ScanTimings
	sw := stopwatch{on: tm != nil}
	if sw.on {
		sw.last = time.Now()
	}
	tc := st.tc
	// This scan's share of the frame's tile accounting: the tiles of
	// the levels it builds.
	var tiles0 TemporalStats
	if tc != nil && st.open {
		tiles0 = tc.frame
	}
	g := st.levels[0]
	nl := st.levelsFor(d.WinW, d.WinH)
	sc.setLevels(nl)
	// A level that skips the fast path below must never be read
	// through a previous scan's lattice.
	clear(sc.lats[:nl])
	clear(sc.nax[:nl])

	// The fast path applies when every scan position is cell-aligned,
	// so each window's blocks exist in the level block grid.
	cell := d.HOG.CellSize
	bw, bh := d.HOG.BlocksFor(d.WinW, d.WinH)
	blockLen := d.HOG.BlockCells * d.HOG.BlockCells * d.HOG.Bins
	useBlocks := !d.NoBlockResponse && d.Stride%cell == 0 && bw > 0 && bh > 0 &&
		sc.bm.Init(d.Model, bw, bh, blockLen) == nil
	// An Init mismatch (model length vs window geometry) falls through
	// to the descriptor path, where Model.Margin reports the wiring
	// bug exactly as it always has.

	if err := st.build(ctx, nl, useBlocks, workers, &t, &sw); err != nil {
		return nil, err
	}
	levels, maps, grids := st.levels, st.maps, st.grids

	// Per level on the fast path, the anchor lattice over the block
	// grid. Margins are computed on demand in stage 3 straight from
	// the grid: precomputing every anchor's partials would spend the
	// work the early exit exists to skip.
	for i := 0; useBlocks && i < nl; i++ {
		nbx, nby := grids[i].Dims()
		nax := scanPositions(levels[i].W, d.WinW, d.Stride)
		nay := scanPositions(levels[i].H, d.WinH, d.Stride)
		lat := svm.Lattice{
			NBX: nbx, NBY: nby,
			StepX: d.Stride / cell, StepY: d.Stride / cell,
			NAX: nax, NAY: nay,
			BlockStride: d.HOG.BlockStride,
		}
		if err := sc.bm.CheckLattice(lat, len(grids[i].Data())); err != nil {
			return nil, err
		}
		sc.lats[i] = lat
		sc.nax[i] = nax
		sw.lap(&t.Response)
	}

	// Stage 3: one task per window row across all levels, pre-sized
	// from the pyramid geometry; each task owns an output slot, so
	// assembly order is independent of worker scheduling.
	nt := 0
	for i := 0; i < nl; i++ {
		nt += scanPositions(levels[i].H, d.WinH, d.Stride)
	}
	tasks, results := sc.setTasks(nt)
	k := 0
	for i := 0; i < nl; i++ {
		level := levels[i]
		for y := 0; y+d.WinH <= level.H; y += d.Stride {
			tasks[k] = rowTask{i, y}
			k++
		}
	}
	descLen := d.HOG.DescriptorLen(d.WinW, d.WinH)
	// Window-row reuse: with a row cache holding this detector's rows
	// of the stack's previous frame (same signature, so the task list
	// is identical), any row whose inputs are untouched this frame
	// produces byte-identical detections — its scores are pure
	// functions of blocks and pixels the dirty masks prove unchanged —
	// so stage 3 serves the cached slice instead of rescoring the row.
	sig := temporalSig{
		model: d.Model, cfg: d.HOG,
		winW: d.WinW, winH: d.WinH, stride: d.Stride,
		scale: d.Scale, thresh: d.DetectThresh,
		kind: d.Kind, noBlock: d.NoBlockResponse,
		w: g.W, h: g.H,
	}
	serveRows := rc.servable(sig, st, nt)
	err = par.ForEachLocal(ctx, workers, nt,
		func() *rowScratch { return new(rowScratch) },
		func(ti int, rs *rowScratch) {
			rt := tasks[ti]
			if serveRows && tc.rowServable(d.HOG, rt.level, rt.y, d.WinH, sc.nax[rt.level] > 0, bh) {
				results[ti] = rc.rows[ti]
				return
			}
			level, fm := levels[rt.level], maps[rt.level]
			fx := float64(g.W) / float64(level.W)
			fy := float64(g.H) / float64(level.H)
			var dets []Detection
			box := func(x int) img.Rect {
				return img.Rect{
					X0: int(float64(x) * fx),
					Y0: int(float64(rt.y) * fy),
					X1: int(float64(x+d.WinW) * fx),
					Y1: int(float64(rt.y+d.WinH) * fy),
				}
			}
			if nax := sc.nax[rt.level]; nax > 0 {
				// Block-response fast path: zero copies, zero
				// normalization, zero allocation per window.
				ay := rt.y / d.Stride
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
					cached = rc.rows[ti]
				}
				spanCX := (bw-1)*d.HOG.BlockStride + d.HOG.BlockCells
				if p := (d.WinW + cell - 1) / cell; p > spanCX {
					spanCX = p
				}
				spanCY := (bh-1)*d.HOG.BlockStride + d.HOG.BlockCells
				if p := (d.WinH + cell - 1) / cell; p > spanCY {
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
					x0 := int(float64(ax*d.Stride) * fx)
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
					m, rejected := sc.bm.EarlyMarginAt(blocks, lat, ax, ay, d.DetectThresh, rs.partial[:bw*bh])
					if !rejected && m > d.DetectThresh {
						dets = append(dets, Detection{Box: box(ax * d.Stride), Score: m, Kind: d.Kind}) // lint:alloc detections are rare post-threshold events; no useful pre-size exists
					}
				}
			} else {
				for x := 0; x+d.WinW <= level.W; x += d.Stride {
					if cap(rs.desc) < descLen {
						rs.desc = make([]float64, descLen) // lint:alloc once per worker per scan
					}
					desc := fm.Descriptor(x, rt.y, d.WinW, d.WinH, rs.desc[:descLen])
					if desc == nil {
						// Window off the cell grid (stride not a
						// multiple of the cell size, or partial border
						// cells): fall back to direct extraction.
						desc = d.HOG.Extract(level.SubImage(img.Rect{X0: x, Y0: rt.y, X1: x + d.WinW, Y1: rt.y + d.WinH}))
					}
					if m := d.Model.Margin(desc); m > d.DetectThresh {
						dets = append(dets, Detection{Box: box(x), Score: m, Kind: d.Kind}) // lint:alloc detections are rare post-threshold events; no useful pre-size exists
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
	if rc != nil && tc != nil {
		rc.store(sig, st, results)
	}
	sw.lap(&t.Windows)
	if tm != nil {
		t.BlockPath = useBlocks
		if tc != nil {
			t.TemporalPath = true
			t.TileHits = tc.frame.Hits - tiles0.Hits
			t.TileMisses = tc.frame.Misses - tiles0.Misses
			t.TileRefreshes = tc.frame.Refreshes - tiles0.Refreshes
		}
		*tm = t
	}
	return all, nil
}
