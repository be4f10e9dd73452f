package pipeline

import (
	"sync"

	"advdet/internal/dbn"
	"advdet/internal/img"
	"advdet/internal/svm"
)

// scanScratch owns the reusable buffers of one HOGDetector scan that
// are private to the detector: the block model, the per-level anchor
// lattices, and the task/result arenas of stage 3. (The frame's
// pyramid, feature maps and block grids live in a hogStack, which
// several scans of one frame may share.) A scratch is borrowed from a
// process-wide pool for the duration of one scan and returned
// afterwards, so the steady-state frame loop allocates (almost)
// nothing — the software equivalent of the PL's statically
// provisioned memories, which are rewritten every frame and never
// reallocated.
//
// Nothing borrowed from the pool escapes a scan: detections handed to
// the caller are always freshly assembled.
type scanScratch struct {
	bm      svm.BlockModel
	lats    []svm.Lattice // per-level anchor lattices (valid when nax > 0)
	nax     []int         // per-level anchor-lattice width; 0 = descriptor path
	tasks   []rowTask
	results [][]Detection
}

var scanPool = sync.Pool{New: func() any { return new(scanScratch) }}

func borrowScanScratch() *scanScratch { return scanPool.Get().(*scanScratch) }

func releaseScanScratch(s *scanScratch) {
	// Drop detection references so the pool doesn't pin row output from
	// past frames; the slice headers themselves are reused. The clear
	// must run over the full capacity, not just the current length: a
	// scan with fewer row tasks than its predecessor shrinks
	// len(s.results), and rows of the larger frame parked in
	// [len, cap) would otherwise keep their detection slices — and the
	// frames those boxes came from — reachable for as long as the
	// scratch stays pooled.
	res := s.results[:cap(s.results)]
	for i := range res {
		res[i] = nil
	}
	scanPool.Put(s) // lint:alloc sync.Pool.Put boxes once per scan, not per window
}

// setLevels grows the per-level lattice arenas to hold n levels,
// preserving existing entries, and invalidates every entry beyond n. A
// pyramid that shrinks between borrows (smaller frame, larger MinSize)
// leaves entries [n, high-water) holding the previous scan's lattices;
// nothing re-derives them, so any later read of an entry the current
// scan didn't fill must see "no data" rather than a stale lattice.
func (s *scanScratch) setLevels(n int) {
	for len(s.lats) < n {
		s.lats = append(s.lats, svm.Lattice{})
		s.nax = append(s.nax, 0)
	}
	clear(s.lats[n:])
	clear(s.nax[n:])
}

// setTasks sizes the task and result arenas for n row tasks and
// returns them, growing capacity only when needed (the fix for the
// old append-into-nil quadratic growth).
func (s *scanScratch) setTasks(n int) ([]rowTask, [][]Detection) {
	if cap(s.tasks) < n {
		s.tasks = make([]rowTask, n)
	}
	s.tasks = s.tasks[:n]
	if cap(s.results) < n {
		s.results = make([][]Detection, n)
	}
	s.results = s.results[:n]
	return s.tasks, s.results
}

// growI32 returns buf resized to n entries, reusing its backing array
// when possible. Contents are unspecified; callers overwrite fully.
func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// darkScratch owns every reusable buffer of one dark-pipeline frame:
// the light mask, the decimated map and the closing's temporaries, the
// summed-area table the ROI gate reads, the per-row hit and stat
// arenas, and one window-plus-activations buffer per worker. Like
// scanScratch it is borrowed from a process-wide pool for one frame,
// never stored on the DarkDetector (an Engine's streams share one
// detector), and nothing borrowed escapes: lights and detections are
// freshly assembled.
type darkScratch struct {
	mask, dec img.Binary
	morph     img.Morph
	sat       []int32
	rows      [][]Light
	stats     []ScanStats
	hits      []Light
	used      []bool
	locals    []*darkLocal
}

// darkLocal is one worker's DBN input window and activation buffers.
type darkLocal struct {
	window []float64
	acts   dbn.Activations
}

var darkPool = sync.Pool{New: func() any { return new(darkScratch) }}

func borrowDarkScratch() *darkScratch { return darkPool.Get().(*darkScratch) }

func releaseDarkScratch(s *darkScratch) {
	darkPool.Put(s) // lint:alloc sync.Pool.Put boxes once per frame, not per window
}

// integral fills the summed-area table of b: entry (y, x) of the
// (W+1)x(H+1) table is the pixel sum over [0, x) x [0, y). Go's integer
// arithmetic wraps, so sums are exact modulo 2^32 and a window's
// four-corner difference is exact for any window holding fewer than
// 2^31 / 255 pixels, whatever the map's size.
func (s *darkScratch) integral(b *img.Binary) []int32 {
	w1 := b.W + 1
	s.sat = growI32(s.sat, w1*(b.H+1))
	sat := s.sat
	clear(sat[:w1])
	for y := 0; y < b.H; y++ {
		prev := sat[y*w1 : (y+1)*w1]
		cur := sat[(y+1)*w1 : (y+2)*w1]
		cur[0] = 0
		var run int32
		for x, v := range b.Pix[y*b.W : (y+1)*b.W] {
			run += int32(v)
			cur[x+1] = prev[x+1] + run
		}
	}
	return sat
}

// setRows sizes the per-row hit and stat arenas for n window rows.
// Hit slots keep their capacity across frames and are truncated by the
// row that fills them.
func (s *darkScratch) setRows(n int) ([][]Light, []ScanStats) {
	for len(s.rows) < n {
		s.rows = append(s.rows, nil)
	}
	if cap(s.stats) < n {
		s.stats = make([]ScanStats, n)
	}
	s.stats = s.stats[:n]
	return s.rows[:n], s.stats
}

// setLocals readies n per-worker buffers.
func (s *darkScratch) setLocals(n int) []*darkLocal {
	for len(s.locals) < n {
		s.locals = append(s.locals, &darkLocal{window: make([]float64, dbn.Window*dbn.Window)})
	}
	return s.locals[:n]
}
