package advdet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"advdet/internal/fleet"
)

// fleetScenes renders the drive the fleet tests replay on every
// stream: day -> dusk -> dark and back, exercising the model select
// and both reconfiguration directions. Scenes are read-only during
// processing, so concurrent streams share them.
func fleetScenes(t *testing.T) []*Scene {
	t.Helper()
	conds := []Condition{Day, Day, Dusk, Dark, Dark, Day}
	out := make([]*Scene, len(conds))
	for i, c := range conds {
		out[i] = RenderScene(uint64(300+i), 320, 180, c)
	}
	return out
}

// TestFleetDeterminismTable is the acceptance table: the same drive
// through 1 standalone stream vs. 8 concurrent streams on one shared
// Engine yields byte-identical per-stream FrameResults, at engine
// worker counts {1, 2, NumCPU}.
func TestFleetDeterminismTable(t *testing.T) {
	d := getDets(t)
	scenes := fleetScenes(t)
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			// Reference: one standalone single-stream run.
			sys, err := NewSystem(d, WithParallelism(workers))
			if err != nil {
				t.Fatal(err)
			}
			ref := make([]FrameResult, 0, len(scenes))
			for _, sc := range scenes {
				res, err := sys.ProcessFrame(sc)
				if err != nil {
					t.Fatal(err)
				}
				ref = append(ref, res)
			}

			// Fleet: 8 concurrent streams on one shared engine.
			const streams = 8
			eng := NewEngine(d,
				WithParallelism(workers),
				WithQueueDepth(2*streams))
			defer eng.Close()
			got := make([][]FrameResult, streams)
			var wg sync.WaitGroup
			wg.Add(streams)
			for i := 0; i < streams; i++ {
				st, err := eng.NewStream(
					WithName(fmt.Sprintf("cam-%d", i)),
					WithParallelism(workers))
				if err != nil {
					t.Fatal(err)
				}
				go func(i int, st *Stream) {
					defer wg.Done()
					for _, sc := range scenes {
						res, err := st.Process(context.Background(), sc)
						if err != nil {
							t.Errorf("stream %d: %v", i, err)
							return
						}
						got[i] = append(got[i], res)
					}
				}(i, st)
			}
			wg.Wait()
			for i := 0; i < streams; i++ {
				if !reflect.DeepEqual(got[i], ref) {
					t.Fatalf("workers=%d stream %d diverged from the standalone run:\n got %+v\nwant %+v",
						workers, i, got[i], ref)
				}
			}
		})
	}
}

func TestStreamProcessPreCancelledCtxNeverAdmits(t *testing.T) {
	eng := NewEngine(getDets(t))
	defer eng.Close()
	st, err := eng.NewStream(WithTimingOnly())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = st.Process(ctx, RenderScene(310, 320, 180, Day))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pre-cancelled Process took %v; admission must fail fast", elapsed)
	}
	if stats := eng.FleetStats(); stats.Admitted != 0 {
		t.Fatalf("pre-cancelled frame was admitted: %+v", stats)
	}
}

// The sentinels are the internal/fleet identities, so errors wrapped
// at any layer match with errors.Is.
func TestFleetSentinelIdentities(t *testing.T) {
	if !errors.Is(ErrOverloaded, fleet.ErrOverloaded) ||
		!errors.Is(ErrStreamClosed, fleet.ErrStreamClosed) ||
		!errors.Is(ErrEngineClosed, fleet.ErrClosed) {
		t.Fatal("root sentinels are not the fleet identities")
	}
}

func TestStreamCloseAndEngineCloseErrors(t *testing.T) {
	eng := NewEngine(getDets(t))
	st, err := eng.NewStream(WithTimingOnly(), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	other, err := eng.NewStream(WithTimingOnly())
	if err != nil {
		t.Fatal(err)
	}
	sc := RenderScene(311, 320, 180, Day)
	if _, err := st.Process(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	if snap := eng.FleetSnapshot(); snap.ActiveStreams != 2 {
		t.Fatalf("active streams %d, want 2", snap.ActiveStreams)
	}
	st.Close()
	st.Close() // idempotent
	if _, err := st.Process(context.Background(), sc); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("closed-stream err = %v, want ErrStreamClosed", err)
	}
	if snap := eng.FleetSnapshot(); snap.ActiveStreams != 1 {
		t.Fatalf("closed stream still active in rollup: %+v", snap)
	}
	// The sibling stream is unaffected by the close.
	if _, err := other.Process(context.Background(), sc); err != nil {
		t.Fatalf("sibling stream after close: %v", err)
	}
	eng.Close()
	if _, err := other.Process(context.Background(), sc); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("closed-engine err = %v, want ErrEngineClosed", err)
	}
	if _, err := eng.NewStream(); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("NewStream on closed engine err = %v, want ErrEngineClosed", err)
	}
}

// gateSink parks the goroutine that emits its first event until
// release is closed, and reports that moment on entered. Later events
// pass straight through.
type gateSink struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *gateSink) Emit(Event) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
}

// TestFleetOverloadShedsGracefully drives more concurrent frames than
// the deliberately tiny engine can admit: the excess must fail fast
// with ErrOverloaded (never deadlock), a frame abandoned in the queue
// must report its context error, and Close must drain cleanly.
func TestFleetOverloadShedsGracefully(t *testing.T) {
	d := getDets(t)
	// One executor and a one-deep queue admit at most QueueDepth +
	// Workers = 2 frames at once.
	const workers, depth, streams = 1, 1, 6
	eng := NewEngine(d, WithFleetWorkers(workers), WithQueueDepth(depth))
	sink := &gateSink{entered: make(chan struct{}), release: make(chan struct{})}
	var sts []*Stream
	for i := 0; i < streams; i++ {
		opts := []Option{WithName(fmt.Sprintf("over-%d", i)), WithTimingOnly()}
		if i == 0 {
			opts = append(opts, WithEventSink(sink))
		}
		st, err := eng.NewStream(opts...)
		if err != nil {
			t.Fatal(err)
		}
		sts = append(sts, st)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, streams)
	process := func(st *Stream) {
		go func() {
			_, err := st.Process(ctx, RenderScene(312, 160, 90, Day))
			errc <- err
		}()
	}
	// Every frame emits EvFrame on the executor goroutine, so once the
	// first stream's sink is entered the single executor is held and
	// only the queue can take more work.
	process(sts[0])
	<-sink.entered
	for _, st := range sts[1:] {
		process(st)
	}
	// Rejections return at once; the frame that won the queue slot
	// blocks behind the held executor.
	const wantOverloaded = streams - (depth + workers)
	for i := 0; i < wantOverloaded; i++ {
		if err := <-errc; !errors.Is(err, ErrOverloaded) {
			t.Fatalf("frame beyond the admission bound: err = %v, want ErrOverloaded", err)
		}
	}
	// Cancel while the queued frame still waits: it is abandoned in the
	// queue. Then let the held frame finish.
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued frame after cancel: err = %v, want context.Canceled", err)
	}
	close(sink.release)
	if err := <-errc; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("held frame: unexpected error %v", err)
	}
	eng.Close() // must not deadlock with an abandoned item in the queue
	if st := eng.FleetStats(); st.Rejected != wantOverloaded || st.Admitted != depth+workers || st.Abandoned != 1 {
		t.Fatalf("fleet stats %+v, want %d rejected, %d admitted, 1 abandoned", st, wantOverloaded, depth+workers)
	}
}

// TestManyStreamSoak runs 32 concurrent timing-only streams over one
// engine — the -race lane's workload. Timing-only streams skip the
// scan path, so this exercises the dispatcher, the per-stream
// simulations and the metrics rollup at fleet scale.
func TestManyStreamSoak(t *testing.T) {
	const streams = 32
	const frames = 25
	d := getDets(t)
	eng := NewEngine(d, WithQueueDepth(2*streams))
	defer eng.Close()
	scenes := fleetScenes(t)
	var wg sync.WaitGroup
	wg.Add(streams)
	for i := 0; i < streams; i++ {
		st, err := eng.NewStream(
			WithName(fmt.Sprintf("soak-%d", i)),
			WithTimingOnly(),
			WithMetrics())
		if err != nil {
			t.Fatal(err)
		}
		go func(i int, st *Stream) {
			defer wg.Done()
			for f := 0; f < frames; f++ {
				if _, err := st.Process(context.Background(), scenes[f%len(scenes)]); err != nil {
					t.Errorf("stream %d frame %d: %v", i, f, err)
					return
				}
			}
		}(i, st)
	}
	wg.Wait()
	stats := eng.FleetStats()
	if stats.Admitted != streams*frames || stats.Executed != streams*frames {
		t.Fatalf("dispatcher stats %+v, want %d admitted+executed", stats, streams*frames)
	}
	if stats.Rejected != 0 {
		t.Fatalf("%d frames rejected despite a queue sized for the fleet", stats.Rejected)
	}
	snap := eng.FleetSnapshot()
	if snap.ActiveStreams != streams {
		t.Fatalf("active streams %d, want %d", snap.ActiveStreams, streams)
	}
	if snap.Frames != streams*frames {
		t.Fatalf("rollup frames %d, want %d", snap.Frames, streams*frames)
	}
	for i := 0; i < streams; i++ {
		row, ok := snap.StreamByName(fmt.Sprintf("soak-%d", i))
		if !ok || row.Frames != frames {
			t.Fatalf("stream %d rollup row %+v ok=%v, want %d frames", i, row, ok, frames)
		}
		if row.DeadlineHits+row.DeadlineMisses != frames {
			t.Fatalf("stream %d deadline accounting %+v does not cover its frames", i, row)
		}
	}
}

// TestStreamRunScenarioMatchesSystem replays a scenario through a
// Stream and through the classic System: same results, and the
// stream's dispatch-stage telemetry records one trip per frame.
func TestStreamRunScenarioMatchesSystem(t *testing.T) {
	d := getDets(t)
	scn := TunnelTransit(7, 160, 90, 10)
	sys, err := NewSystem(d, WithFPS(10), WithTimingOnly())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.RunScenario(scn)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(d)
	defer eng.Close()
	st, err := eng.NewStream(WithFPS(10), WithTimingOnly(), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.RunScenario(context.Background(), TunnelTransit(7, 160, 90, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream scenario run diverged from system run")
	}
	snap := st.Snapshot()
	row, ok := snap.StageByName("fleet-dispatch")
	if !ok || row.Count != uint64(len(got)) {
		t.Fatalf("fleet-dispatch stage row %+v ok=%v, want count %d", row, ok, len(got))
	}
}
