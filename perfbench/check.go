package main

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"

	"advdet"
	"advdet/internal/ledger"
)

// reference runs every camera's frames through a standalone System
// with one scan lane and no temporal cache: no engine, no dispatcher,
// no cache reuse. Cameras run concurrently, one System each.
func reference(dets advdet.Detectors, wl *workload) ([][]advdet.FrameResult, error) {
	out := make([][]advdet.FrameResult, len(wl.cameras))
	errs := make([]error, len(wl.cameras))
	next := make(chan int, len(wl.cameras))
	for c := range wl.cameras {
		next <- c
	}
	close(next)
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				out[c], errs[c] = referenceCamera(dets, &wl.cameras[c])
			}
		}()
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", wl.cameras[c].name, err)
		}
	}
	return out, nil
}

func referenceCamera(dets advdet.Detectors, cam *camera) ([]advdet.FrameResult, error) {
	sys, err := advdet.NewSystem(dets, advdet.WithParallelism(1), advdet.WithInitial(cam.initial))
	if err != nil {
		return nil, err
	}
	res := make([]advdet.FrameResult, len(cam.frames))
	for i, sc := range cam.frames {
		if res[i], err = sys.ProcessFrame(sc); err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
	}
	return res, nil
}

// compareRuns checks every frame of every stream run against the
// reference for its camera. It returns how many frames failed or
// differ, and a line for each of the first limit of them.
func compareRuns(wl *workload, runs []*streamRun, ref [][]advdet.FrameResult, limit int) (int, []string) {
	bad := 0
	var lines []string
	for _, sr := range runs {
		for i, fo := range sr.out {
			want := ref[sr.cam][i]
			var msg string
			switch {
			case fo.err != nil:
				msg = fo.err.Error()
			case !reflect.DeepEqual(fo.res, want):
				msg = fmt.Sprintf("result differs from the reference (vehicles %d vs %d, pedestrians %d vs %d)",
					len(fo.res.Vehicles), len(want.Vehicles), len(fo.res.Pedestrians), len(want.Pedestrians))
			default:
				continue
			}
			if bad++; bad <= limit {
				lines = append(lines, fmt.Sprintf("%s frame %d (traced=%v): %s", wl.cameras[sr.cam].name, i, sr.traced, msg))
			}
		}
	}
	return bad, lines
}

// verifyLedger serializes the ledger, reads it back and recomputes
// every hash. The tail must already be sealed.
func verifyLedger(led *ledger.Ledger) (ledger.Report, error) {
	events, _ := led.Counts()
	var buf bytes.Buffer
	if _, err := led.WriteTo(&buf); err != nil {
		return ledger.Report{}, fmt.Errorf("write ledger: %w", err)
	}
	lg, err := ledger.ReadLog(&buf)
	if err != nil {
		return ledger.Report{}, fmt.Errorf("read ledger: %w", err)
	}
	rep := ledger.VerifyLog(lg)
	switch {
	case !rep.OK:
		return rep, fmt.Errorf("ledger does not verify: batch %d stream %d seq %d: %v",
			rep.BadBatch, rep.BadStream, rep.BadSeq, rep.Err)
	case uint64(rep.Events) != events:
		return rep, fmt.Errorf("ledger log holds %d events, ledger counted %d", rep.Events, events)
	}
	return rep, nil
}
