// Package hotpathalloc is golden testdata: allocating constructs in
// functions reachable from a lint:hotpath root must be reported;
// pre-sized appends, cap-guarded amortization, annotated escapes, and
// unreachable cold code stay silent.
package hotpathalloc

import "fmt"

// Scan is the frame-loop entry point.
//
// lint:hotpath
func Scan(rows [][]float64) []float64 {
	out := make([]float64, 0, len(rows))
	for _, r := range rows {
		out = append(out, describe(r)) // pre-sized destination: clean
	}
	closures(len(rows))
	return out
}

// describe is hot by reachability: Scan calls it.
func describe(r []float64) float64 {
	stats := map[string]int{} // want "map literal allocates in a hot path"
	weights := []float64{0.5, 0.5} // want "slice literal allocates in a hot path"
	var tail []float64
	tail = append(tail, weights[0]) // want "un-pre-sized append growth in a hot path"
	msg := fmt.Sprintf("%d", len(r)) // want "fmt.Sprintf in a hot path boxes arguments and allocates"
	sink(len(msg)) // want "boxing int into interface"
	stats["n"] = len(tail)
	s := 0.0
	for _, v := range r {
		s += v
		window := make([]float64, 4) // want "make inside a loop allocates every iteration in a hot path"
		_ = window
	}
	return s
}

// closures demonstrates the loop-variable capture report and the
// guarded/annotated escapes.
func closures(n int) {
	fs := make([]func() int, 0, n)
	for i := 0; i < n; i++ {
		fs = append(fs, func() int { return i }) // want "closure captures loop variable i"
	}
	var buf []int
	if cap(buf) < n {
		buf = make([]int, 0, n)
		buf = append(buf, n) // cap-guarded amortization: clean
	}
	rows := make([][]int, n) // sized from the geometry, outside any loop: clean
	for i := range rows {
		if cap(rows[i]) < n {
			rows[i] = make([]int, n) // cap-guarded growth inside a loop: clean
		}
	}
	cold := fmt.Sprintf("grew to %d", cap(buf)) // lint:alloc cold resize path, runs only on geometry change
	// lint:alloc
	_ = fmt.Sprint(cold) // want "lint:alloc needs a reason justifying the allocation"
	_ = fs
}

// sink boxes its argument; hot callers get reported at the call site.
func sink(v interface{}) {
	_ = v
}

// Cold is unreachable from any lint:hotpath root: its allocations are
// nobody's business.
func Cold() map[string]int {
	return map[string]int{"a": 1}
}
