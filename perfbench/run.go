package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"advdet"
	"advdet/internal/adaptive"
	"advdet/internal/fleet"
)

// trainSeed is fixed: the trained models are part of the system under
// test, and only the frames come from the workload seed.
const trainSeed = 1

// setupRepeats is how often a run sets up, so setup_s is a median.
const setupRepeats = 9

// clients is how many goroutines send a multi-camera workload's
// frames, in the closed loop and in the open-loop probe; each owns
// every clients-th stream.
const clients = 2

// frameOut is what a run keeps of one frame sent to a stream.
type frameOut struct {
	res advdet.FrameResult
	err error
	// lat is the Stream.Process wall time in a closed loop and the time
	// from due to done in the open loop.
	lat time.Duration
	// late is how late the open-loop generator sent the frame.
	late time.Duration
	// Traced frames only: the Dispatcher.Submit span, the
	// ProcessFrameCtx span inside it, and the events the frame emitted.
	submit, process interval
	events          []adaptive.Event
}

// streamRun is one stream's pass over its camera's frames.
type streamRun struct {
	cam    int
	traced bool
	st     *advdet.Stream // nil once the pass is over
	sink   *captureSink
	out    []frameOut
	// reconfigs are the stream's reconfigurations, kept when the pass
	// ends so the stream and its scan caches can be freed.
	reconfigs []adaptive.Reconfiguration
}

// captureSink keeps the events of the frame in flight.
type captureSink struct{ evs []adaptive.Event }

func (c *captureSink) Emit(ev adaptive.Event) { c.evs = append(c.evs, ev) }

// pass is one timed unit of a run: a closed-loop pass over every
// camera's frames, or one play of the open-loop schedule. The
// end-to-end metrics are computed per closed-loop pass and the run
// reports their medians.
type pass struct {
	traced, open bool
	runs         []*streamRun
	wall, cpu    time.Duration
	mallocs      uint64
	allocBytes   uint64
}

// runner drives a workload's frames into one engine.
type runner struct {
	wl    *workload
	eng   *advdet.Engine
	epoch time.Time
	// disp is the benchmark's own dispatcher for traced frames,
	// configured like the engine's (the fleet defaults).
	disp   *fleet.Dispatcher
	runs   []*streamRun
	passes []*pass
}

// setUp trains the detectors and builds the engine and one stream per
// camera, setupRepeats times, and returns the durations. The last
// engine is kept for the run; every pass opens streams of its own.
func setUp(wl *workload) (*runner, []float64, error) {
	var secs []float64
	var r *runner
	for k := 0; k < setupRepeats; k++ {
		if r != nil {
			r.eng.Close()
		}
		t0 := time.Now()
		dets, err := advdet.TrainDetectors(trainSeed, advdet.Fast)
		if err != nil {
			return nil, nil, fmt.Errorf("train: %w", err)
		}
		r = &runner{wl: wl, eng: advdet.NewEngine(dets, advdet.WithEngineTemporalCache())}
		for c := range wl.cameras {
			sr, err := r.open(c, false, 0)
			if err != nil {
				r.eng.Close()
				return nil, nil, err
			}
			sr.st.Close()
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return r, secs, nil
}

// open opens a stream for camera c that will be sent its first n
// frames. A traced stream also captures its events.
func (r *runner) open(c int, traced bool, n int) (*streamRun, error) {
	cam := &r.wl.cameras[c]
	sr := &streamRun{cam: c, traced: traced, out: make([]frameOut, n)}
	opts := []advdet.StreamOption{advdet.WithStreamLedger(), advdet.WithStreamInitial(cam.initial)}
	if traced {
		sr.sink = &captureSink{}
		opts = append(opts, advdet.WithStreamEventSink(sr.sink))
	}
	st, err := r.eng.NewStream(opts...)
	if err != nil {
		return nil, fmt.Errorf("open stream for %s: %w", cam.name, err)
	}
	sr.st = st
	return sr, nil
}

// openAll opens one stream per camera, each to be sent its first n
// frames.
func (r *runner) openAll(traced bool, n int) ([]*streamRun, error) {
	srs := make([]*streamRun, len(r.wl.cameras))
	for c := range srs {
		sr, err := r.open(c, traced, n)
		if err != nil {
			return nil, err
		}
		srs[c] = sr
	}
	r.runs = append(r.runs, srs...)
	return srs, nil
}

// measure runs fn as one pass, records its wall and CPU time and its
// heap allocations, and closes the pass's streams.
func (r *runner) measure(p *pass, fn func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	fn()
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.passes = append(r.passes, p)
	for _, sr := range p.runs {
		sr.st.Close()
		sr.reconfigs = sr.st.Stats().Reconfigs
		sr.st = nil
	}
}

// process sends frame i to the stream. An untraced frame goes through
// Stream.Process. A traced frame takes the same path by hand: the
// stream's System through a dispatcher, with a span around Submit and
// one around ProcessFrameCtx.
func (r *runner) process(ctx context.Context, sr *streamRun, i int) {
	sc := r.wl.cameras[sr.cam].frames[i]
	fo := &sr.out[i]
	if !sr.traced {
		fo.res, fo.err = sr.st.Process(ctx, sc)
		return
	}
	sys := sr.st.System()
	var pa, pb time.Time
	var ferr error
	s0 := time.Now()
	_, err := r.disp.Submit(ctx, func(ctx context.Context) {
		pa = time.Now()
		fo.res, ferr = sys.ProcessFrameCtx(ctx, sc)
		pb = time.Now()
	})
	s1 := time.Now()
	if err == nil {
		err = ferr
		fo.process = interval{pa.Sub(r.epoch), pb.Sub(r.epoch)}
	}
	fo.err = err
	fo.submit = interval{s0.Sub(r.epoch), s1.Sub(r.epoch)}
	fo.events = append([]adaptive.Event(nil), sr.sink.evs...)
	sr.sink.evs = sr.sink.evs[:0]
}

// closedLoop runs whole passes over every camera's frames, each pass
// on fresh streams, until seconds have passed. Up to clients
// goroutines each own every clients-th stream and send its frames one
// after another, each when the previous one returns, taking their
// streams in turn frame by frame. With trace, passes alternate
// untraced and traced and end on a traced one, so both halves see the
// same frames under the same conditions.
func (r *runner) closedLoop(ctx context.Context, seconds time.Duration, trace bool) error {
	start := time.Now()
	frames := len(r.wl.cameras[0].frames)
	for k := 0; ; k++ {
		traced := trace && k%2 == 1
		srs, err := r.openAll(traced, frames)
		if err != nil {
			return err
		}
		r.measure(&pass{traced: traced, runs: srs}, func() {
			var wg sync.WaitGroup
			for g := 0; g < clients && g < len(srs); g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < frames; i++ {
						for c := g; c < len(srs); c += clients {
							t0 := time.Now()
							r.process(ctx, srs[c], i)
							srs[c].out[i].lat = time.Since(t0)
						}
					}
				}(g)
			}
			wg.Wait()
		})
		if time.Since(start) >= seconds && (!trace || traced) {
			return nil
		}
	}
}

// openLoop plays the cameras' fixed schedules once, untraced. clients
// generator goroutines each own every clients-th stream and send its
// frames at their due times, whatever the system is doing. Each
// stream has one goroutine that processes its frames in order, as a
// camera link would; a frame's latency runs from its due time.
func (r *runner) openLoop(ctx context.Context) error {
	srs, err := r.openAll(false, len(r.wl.cameras[0].due))
	if err != nil {
		return err
	}
	r.measure(&pass{open: true, runs: srs}, func() {
		// Lead time so the first frames are not due before the
		// goroutines exist.
		start := time.Now().Add(20 * time.Millisecond)
		var wg sync.WaitGroup
		queues := make([]chan int, len(srs))
		for c, sr := range srs {
			// Buffered to the whole schedule: a generator never blocks
			// on a slow stream.
			queues[c] = make(chan int, len(sr.out))
			wg.Add(1)
			go func(sr *streamRun, q <-chan int) {
				defer wg.Done()
				due := r.wl.cameras[sr.cam].due
				for i := range q {
					r.process(ctx, sr, i)
					sr.out[i].lat = openLoopLatency(due[i], time.Since(start))
				}
			}(sr, queues[c])
		}
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r.generate(srs, queues, g, start)
			}(g)
		}
		wg.Wait()
	})
	return nil
}

// generate sends the frames of client g's streams at their due times,
// merged into one time order, then closes those streams' queues.
func (r *runner) generate(srs []*streamRun, queues []chan int, g int, start time.Time) {
	type send struct {
		due       time.Duration
		stream, i int
	}
	var sends []send
	for c := g; c < len(srs); c += clients {
		for i, d := range r.wl.cameras[srs[c].cam].due {
			sends = append(sends, send{d, c, i})
		}
	}
	sort.Slice(sends, func(a, b int) bool { return sends[a].due < sends[b].due })
	for _, s := range sends {
		time.Sleep(time.Until(start.Add(s.due)))
		srs[s.stream].out[s.i].late = lateness(s.due, time.Since(start))
		queues[s.stream] <- s.i
	}
	for c := g; c < len(srs); c += clients {
		close(queues[c])
	}
}
