package pipeline

import (
	"context"
	"sync"
	"time"

	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/par"
)

// hogStack is stages 1–2 of the Fig. 2 datapath for one frame: the
// frame's gray image, its pyramid levels and, per level, the feature
// map and block grid — the software "HOG Memory" that is filled once
// per frame and that every window evaluator only reads. Scans build
// it lazily: each scan builds the levels its pyramid needs that no
// earlier scan of the frame built, so detectors with the same HOG
// config and pyramid scale share one stack, and each detector's
// pyramid is a prefix of it (PyramidSizes is prefix-stable in the
// window minimum).
//
// A stack is either pooled — borrowed for one frame and computed in
// full — or persistent, when tc is set: it then keeps tile
// fingerprints across frames and refreshes each level only where the
// frame changed (see tileCache). A stack serves one frame sequence at
// a time and is not safe for concurrent use.
type hogStack struct {
	cfg   hog.Config
	scale float64

	gray   *img.Gray   // owned buffer the frame's gray image is converted into
	levels []*img.Gray // levels[0] is the frame's gray image
	maps   []*hog.FeatureMap
	grids  []*hog.BlockGrid
	hs     hog.Scratch

	// sizes is PyramidSizes of the w x h frame at sizeScale for the
	// smallest window (minW, minH) asked for so far; it is recomputed
	// only when one of them changes.
	sizes            [][2]int
	w, h, minW, minH int
	sizeScale        float64

	// open is set once a scan has built part of the current frame;
	// serial counts the frames that were built, and built the levels
	// current in this one.
	open   bool
	serial uint64
	built  int
	// epoch[i] counts the builds of level i; gridAt[i] is the epoch
	// its block grid was last brought current at (-1: never).
	epoch, gridAt []int

	tc *tileCache // nil on pooled stacks
}

var stackPool = sync.Pool{New: func() any { return new(hogStack) }}

func borrowStack() *hogStack { return stackPool.Get().(*hogStack) }

func releaseStack(st *hogStack) {
	st.end()
	stackPool.Put(st) // lint:alloc sync.Pool.Put boxes once per frame, not per window
}

// begin opens a frame over the gray image g for the given HOG config
// and pyramid scale. Nothing is computed until the first build.
func (st *hogStack) begin(g *img.Gray, cfg hog.Config, scale float64) {
	if st.tc != nil {
		st.tc.check(stackSig{cfg: cfg, scale: scale, w: g.W, h: g.H})
	}
	st.cfg, st.scale = cfg, scale
	st.setLevels(1)
	st.levels[0] = g
	st.open, st.built = false, 0
}

// end closes the frame, dropping the reference to a caller's image so
// a kept or pooled stack never pins it.
func (st *hogStack) end() {
	if len(st.levels) > 0 && st.levels[0] != st.gray {
		st.levels[0] = nil
	}
}

// invalidate discards the cross-frame state of a persistent stack: the
// next frame builds every level in full.
func (st *hogStack) invalidate() {
	if st.tc != nil {
		st.tc.valid = false
	}
}

// levelsFor returns how many leading levels of the frame's pyramid a
// winW x winH window fits, widening the stack's pyramid when the
// window is smaller than any asked for so far.
func (st *hogStack) levelsFor(winW, winH int) int {
	g := st.levels[0]
	if g.W != st.w || g.H != st.h || st.scale != st.sizeScale {
		st.w, st.h, st.sizeScale = g.W, g.H, st.scale
		st.minW, st.minH = winW, winH
		st.sizes = img.PyramidSizes(g.W, g.H, st.scale, winW, winH)
	} else if winW < st.minW || winH < st.minH {
		st.minW, st.minH = min(st.minW, winW), min(st.minH, winH)
		st.sizes = img.PyramidSizes(g.W, g.H, st.scale, st.minW, st.minH)
	}
	n := 0
	for n < len(st.sizes) && st.sizes[n][0] >= winW && st.sizes[n][1] >= winH {
		n++
	}
	return n
}

// setLevels grows the per-level arenas to hold n levels, keeping
// existing buffers for reuse.
func (st *hogStack) setLevels(n int) {
	for len(st.levels) < n {
		st.levels = append(st.levels, nil)
		st.maps = append(st.maps, new(hog.FeatureMap))
		st.grids = append(st.grids, new(hog.BlockGrid))
		st.epoch = append(st.epoch, 0)
		st.gridAt = append(st.gridAt, -1)
	}
}

// stopwatch attributes wall time to the ScanTimings stages; off, it
// reads no clock.
type stopwatch struct {
	on   bool
	last time.Time
}

func (w *stopwatch) lap(stage *time.Duration) {
	if !w.on {
		return
	}
	now := time.Now()
	*stage += now.Sub(w.last)
	w.last = now
}

// build brings levels [0, nl) of the open frame current: the pyramid
// level and feature map of each level no earlier scan of the frame
// built and, with grids, each level's block grid. Stage times land in
// t. On a non-nil error the stack is partial and the caller discards
// it (releases it, or invalidates a persistent one).
//
// Stage 1 resizes the new levels concurrently, each reading only level
// 0, into buffers kept across frames. Stage 2 computes, per level, the
// feature map (row-parallel) and the L2Hys-normalized block grid,
// once per frame instead of once per window. On a persistent stack a
// level's tile fingerprints pick its refresh mode first: reuse
// (tcClean), refresh the dirty cells and blocks (tcPartial) or
// recompute (tcFull, the only mode of a pooled stack).
//
// lint:hotpath
func (st *hogStack) build(ctx context.Context, nl int, grids bool, workers int, t *ScanTimings, sw *stopwatch) error {
	if !st.open {
		st.open = true
		st.serial++
		if st.tc != nil {
			st.tc.beginFrame()
		}
	}
	first := st.built
	if nl > first {
		st.setLevels(nl)
		lo := max(first, 1)
		if err := par.ForEach(ctx, workers, nl-lo, func(i int) {
			i += lo
			st.levels[i] = img.ResizeGrayInto(st.levels[i], st.levels[0], st.sizes[i][0], st.sizes[i][1])
		}); err != nil {
			return err
		}
		sw.lap(&t.Resize)
	}
	tc := st.tc
	for i := 0; i < nl; i++ {
		level, fm := st.levels[i], st.maps[i]
		mode := tcFull
		if i >= first {
			if tc != nil {
				mode = tc.observe(i, level, st.cfg)
				sw.lap(&t.Temporal)
			}
			switch mode {
			case tcClean:
				// Every tile fingerprint matched: the kept feature map
				// is bitwise what ComputeCtx would produce.
			case tcPartial:
				if err := fm.ComputeDirtyCtx(ctx, st.cfg, level, workers, tc.cells[i]); err != nil {
					return err
				}
			default:
				if err := fm.ComputeCtx(ctx, st.cfg, level, workers, &st.hs); err != nil {
					return err
				}
			}
			st.epoch[i]++
			st.built = i + 1
			sw.lap(&t.Feature)
		} else if tc != nil {
			mode = tc.mode[i]
		}
		if !grids || st.gridAt[i] == st.epoch[i] {
			continue
		}
		if st.gridAt[i] != st.epoch[i]-1 {
			// The grid missed a build of its level, so the level's
			// dirty masks do not describe what changed since it.
			mode = tcFull
		}
		bg := st.grids[i]
		switch mode {
		case tcClean:
			// Kept grid current; nothing to normalize.
		case tcPartial:
			nbx, nby := bg.Dims()
			mask := tc.dirtyBlocks(i, st.cfg, nbx, nby)
			if err := bg.ComputeDirtyCtx(ctx, fm, workers, mask); err != nil {
				return err
			}
		default:
			if err := bg.ComputeCtx(ctx, fm, workers); err != nil {
				return err
			}
		}
		st.gridAt[i] = st.epoch[i]
		sw.lap(&t.Blocks)
	}
	return nil
}

// FrameStack is the HOG stack of one stream's current frame, shared by
// every HOG scan of the frame that uses its HOG config and pyramid
// scale (DetectStackCtx): the gray image is converted once, and each
// pyramid level, feature map and block grid is computed at most once,
// on first use. A temporal FrameStack keeps its stack across frames
// and refreshes only what each frame changed; otherwise the stack is
// borrowed from a process-wide pool for the frame and returned by End.
//
// A FrameStack belongs to one stream and is not safe for concurrent
// use.
type FrameStack struct {
	cfg   hog.Config
	scale float64
	own   *hogStack // persistent stack; nil without temporal reuse
	st    *hogStack // the current frame's stack, once used
	src   *img.RGB
}

// NewFrameStack returns a frame stack for the scans that share ref's
// HOG config and pyramid scale; ref may be nil when no HOG detector
// scans the stream. With temporal, the stack persists across frames,
// as a TemporalCache does for a single detector.
func NewFrameStack(ref *HOGDetector, temporal bool) *FrameStack {
	f := &FrameStack{}
	if ref != nil {
		f.cfg, f.scale = ref.HOG, ref.Scale
	}
	if temporal {
		f.own = newTemporalStack()
	}
	return f
}

// Begin opens a frame; nothing is computed until a scan or Gray needs
// it. It ends any frame still open.
func (f *FrameStack) Begin(frame *img.RGB) {
	f.End()
	f.src = frame
}

// Gray returns the frame's gray image, converting it on first use. The
// image belongs to the stack: it is valid until End.
func (f *FrameStack) Gray() *img.Gray { return f.stack().levels[0] }

// End closes the frame and returns a pooled stack to the pool.
func (f *FrameStack) End() {
	if f.st != nil && f.st != f.own {
		releaseStack(f.st)
	}
	f.st, f.src = nil, nil
}

// Invalidate discards a temporal stack's cross-frame state, so the
// next frame is computed in full. Callers invalidate when frame
// continuity breaks, such as on a partial reconfiguration.
func (f *FrameStack) Invalidate() {
	if f.own != nil {
		f.own.invalidate()
	}
}

// stack returns the current frame's stack, converting the frame to
// gray into the stack's own buffer on first use.
func (f *FrameStack) stack() *hogStack {
	if f.st == nil {
		st := f.own
		if st == nil {
			st = borrowStack()
		}
		st.gray = img.RGBToGrayInto(st.gray, f.src)
		st.begin(st.gray, f.cfg, f.scale)
		f.st = st
	}
	return f.st
}
