package pipeline

import (
	"sync"

	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/svm"
)

// scanScratch owns every reusable buffer of one HOGDetector scan:
// pyramid levels, per-level feature maps, block grids, anchor
// lattices, and the task/result arenas. A scratch is borrowed from a
// process-wide pool for the duration of one scan and returned
// afterwards, so the steady-state frame loop recomputes everything per
// frame but allocates (almost) nothing — the software equivalent of
// the PL's statically provisioned HOG/Normalized-HOG memories, which
// are rewritten every frame and never reallocated.
//
// Nothing borrowed from the pool escapes a scan: detections handed to
// the caller are always freshly assembled.
type scanScratch struct {
	levels  []*img.Gray
	maps    []*hog.FeatureMap
	grids   []*hog.BlockGrid
	hs      hog.Scratch
	bm      svm.BlockModel
	lats    []svm.Lattice // per-level anchor lattices (valid when nax > 0)
	nax     []int         // per-level anchor-lattice width; 0 = descriptor path
	tasks   []rowTask
	results [][]Detection

	// level0 stashes the pooled level-0 buffer while levels[0] aliases
	// the caller's frame (level 0 of the pyramid is always the source
	// size, so the scan reads the frame directly instead of copying
	// it). releaseScanScratch swaps the stash back so the pool never
	// pins a caller's frame across scans.
	level0        *img.Gray
	level0Aliased bool
}

var scanPool = sync.Pool{New: func() any { return new(scanScratch) }}

func borrowScanScratch() *scanScratch { return scanPool.Get().(*scanScratch) }

func releaseScanScratch(s *scanScratch) {
	if s.level0Aliased {
		s.levels[0] = s.level0
		s.level0 = nil
		s.level0Aliased = false
	}
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

// setLevels grows the per-level arenas to hold n levels, preserving
// existing entries (and their buffers) for reuse, and invalidates the
// per-level scan state of every entry beyond n. A pyramid that
// shrinks between borrows (smaller frame, larger MinSize) leaves
// entries [n, high-water) holding the previous scan's lattices;
// nothing re-derives them, so any later read of an entry the current
// scan didn't fill must see "no data" rather than a stale lattice.
// Buffers are kept so a regrow reuses them.
func (s *scanScratch) setLevels(n int) {
	for len(s.levels) < n {
		s.levels = append(s.levels, nil)
	}
	for len(s.maps) < n {
		s.maps = append(s.maps, new(hog.FeatureMap))
	}
	for len(s.grids) < n {
		s.grids = append(s.grids, new(hog.BlockGrid))
	}
	for len(s.lats) < n {
		s.lats = append(s.lats, svm.Lattice{})
	}
	for len(s.nax) < n {
		s.nax = append(s.nax, 0)
	}
	for i := n; i < len(s.nax); i++ {
		s.lats[i] = svm.Lattice{}
		s.nax[i] = 0
	}
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
