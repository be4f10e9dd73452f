package fleet

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSubmitRunsWorkAndStampsTiming(t *testing.T) {
	d := NewDispatcher(Config{Workers: 1})
	defer d.Close()
	ran := false
	tm, err := d.Submit(context.Background(), func(context.Context) { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("work function did not run")
	}
	if tm.Enqueued.After(tm.Started) || tm.Started.After(tm.Finished) {
		t.Fatalf("timing not monotonic: %+v", tm)
	}
	if tm.QueueWait() < 0 || tm.Run() < 0 {
		t.Fatalf("negative durations: wait=%v run=%v", tm.QueueWait(), tm.Run())
	}
	st := d.Stats()
	if st.Admitted != 1 || st.Executed != 1 || st.Rejected != 0 || st.Abandoned != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestAdmissionBoundIsQueueDepthPlusWorkers pins the admission bound:
// with every executor parked inside a work function, exactly
// QueueDepth more submissions are admitted, so QueueDepth + Workers
// are in flight, and every further submission wraps ErrOverloaded.
func TestAdmissionBoundIsQueueDepthPlusWorkers(t *testing.T) {
	const workers, depth, extra = 2, 3, 5
	d := NewDispatcher(Config{Workers: workers, QueueDepth: depth})
	defer d.Close()
	gate := make(chan struct{})
	entered := make(chan struct{}, workers+depth)
	run := func(context.Context) {
		entered <- struct{}{}
		<-gate
	}
	errc := make(chan error, workers+depth+extra)
	submit := func() {
		go func() {
			_, err := d.Submit(context.Background(), run)
			errc <- err
		}()
	}
	// Park every executor inside run before anything else is offered,
	// so the queue is the only place left for admitted work.
	for i := 0; i < workers; i++ {
		submit()
	}
	for i := 0; i < workers; i++ {
		<-entered
	}
	for i := 0; i < depth+extra; i++ {
		submit()
	}
	// Only rejections return while the gate is shut: admitted
	// submissions block until their work has run.
	for i := 0; i < extra; i++ {
		if err := <-errc; !errors.Is(err, ErrOverloaded) {
			t.Fatalf("submission beyond the bound: err = %v, want ErrOverloaded", err)
		}
	}
	if st := d.Stats(); st.Rejected != extra {
		t.Fatalf("rejected %d, want %d", st.Rejected, extra)
	}
	close(gate)
	for i := 0; i < workers+depth; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("admitted submission: %v", err)
		}
	}
	if st := d.Stats(); st.Admitted != workers+depth || st.Executed != workers+depth {
		t.Fatalf("admitted %d, executed %d; want %d each (QueueDepth + Workers)",
			st.Admitted, st.Executed, workers+depth)
	}
}

// blockedDispatcher builds a single-worker dispatcher whose one
// executor is parked inside a work function until gate is closed.
func blockedDispatcher(t *testing.T, depth int) (d *Dispatcher, gate chan struct{}, blockerDone chan error) {
	t.Helper()
	d = NewDispatcher(Config{Workers: 1, QueueDepth: depth})
	gate = make(chan struct{})
	started := make(chan struct{})
	blockerDone = make(chan error, 1)
	go func() {
		_, err := d.Submit(context.Background(), func(context.Context) {
			close(started)
			<-gate
		})
		blockerDone <- err
	}()
	<-started
	return d, gate, blockerDone
}

func TestSubmitOverloadedWhenQueueFull(t *testing.T) {
	d, gate, blockerDone := blockedDispatcher(t, 1)
	// With the executor parked, exactly one more submission fits in
	// the queue; sixteen concurrent submitters must see rejections.
	const submitters = 16
	var rejected, accepted atomic.Int32
	var wg sync.WaitGroup
	wg.Add(submitters)
	for i := 0; i < submitters; i++ {
		go func() {
			defer wg.Done()
			_, err := d.Submit(context.Background(), func(context.Context) {})
			switch {
			case err == nil:
				accepted.Add(1)
			case errors.Is(err, ErrOverloaded):
				rejected.Add(1)
			default:
				t.Errorf("unexpected submit error: %v", err)
			}
		}()
	}
	// Rejections are immediate; wait for them to accumulate before
	// releasing the executor so the queue is genuinely full.
	for deadline := time.Now().Add(5 * time.Second); rejected.Load() == 0; {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if err := <-blockerDone; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	if rejected.Load() == 0 {
		t.Fatal("no submission was rejected with ErrOverloaded")
	}
	if got := rejected.Load() + accepted.Load(); got != submitters {
		t.Fatalf("accounted for %d of %d submitters", got, submitters)
	}
	st := d.Stats()
	if st.Rejected != uint64(rejected.Load()) {
		t.Fatalf("stats rejected %d, observed %d", st.Rejected, rejected.Load())
	}
	d.Close()
	if st := d.Stats(); st.Admitted != st.Executed+st.Abandoned {
		t.Fatalf("admitted %d != executed %d + abandoned %d", st.Admitted, st.Executed, st.Abandoned)
	}
}

func TestSubmitPreCancelledContextNeverAdmits(t *testing.T) {
	d := NewDispatcher(Config{Workers: 1})
	defer d.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := d.Submit(ctx, func(context.Context) { ran = true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("work function ran despite pre-cancelled ctx")
	}
	if st := d.Stats(); st.Admitted != 0 || st.Rejected != 0 {
		t.Fatalf("pre-cancelled submit touched the queue: %+v", st)
	}
}

func TestSubmitAbandonedInQueueOnCancel(t *testing.T) {
	d, gate, blockerDone := blockedDispatcher(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{}, 1)
	errc := make(chan error, 1)
	go func() {
		_, err := d.Submit(ctx, func(context.Context) { ran <- struct{}{} })
		errc <- err
	}()
	// Let the submission be admitted, then cancel while it waits
	// behind the parked executor.
	for deadline := time.Now().Add(5 * time.Second); d.Stats().Admitted < 2; {
		if time.Now().After(deadline) {
			t.Fatal("second submission never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	err := <-errc
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(gate)
	if err := <-blockerDone; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	d.Close()
	select {
	case <-ran:
		t.Fatal("abandoned work function ran")
	default:
	}
	if st := d.Stats(); st.Abandoned != 1 {
		t.Fatalf("abandoned %d, want 1", st.Abandoned)
	}
}

func TestCloseDrainsAdmittedWorkThenRejects(t *testing.T) {
	d := NewDispatcher(Config{Workers: 2, QueueDepth: 16})
	var executed atomic.Int32
	var wg sync.WaitGroup
	const n = 10
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			if _, err := d.Submit(context.Background(), func(context.Context) { executed.Add(1) }); err != nil {
				t.Errorf("submit: %v", err)
			}
		}()
	}
	wg.Wait()
	d.Close()
	d.Close() // idempotent
	if executed.Load() != n {
		t.Fatalf("executed %d, want %d", executed.Load(), n)
	}
	_, err := d.Submit(context.Background(), func(context.Context) {})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit err = %v, want ErrClosed", err)
	}
}

func TestSentinelsAreDistinct(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"ErrOverloaded", ErrOverloaded},
		{"ErrClosed", ErrClosed},
		{"ErrStreamClosed", ErrStreamClosed},
	} {
		for _, other := range []error{ErrOverloaded, ErrClosed, ErrStreamClosed} {
			want := tc.err == other
			if got := errors.Is(tc.err, other); got != want {
				t.Errorf("errors.Is(%s, %v) = %v, want %v", tc.name, other, got, want)
			}
		}
	}
}

func TestConcurrentSubmittersAllComplete(t *testing.T) {
	d := NewDispatcher(Config{Workers: 4, QueueDepth: 256})
	defer d.Close()
	const streams = 8
	const frames = 50
	var executed atomic.Int32
	var wg sync.WaitGroup
	wg.Add(streams)
	for s := 0; s < streams; s++ {
		go func() {
			defer wg.Done()
			for f := 0; f < frames; f++ {
				if _, err := d.Submit(context.Background(), func(context.Context) { executed.Add(1) }); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if executed.Load() != streams*frames {
		t.Fatalf("executed %d, want %d", executed.Load(), streams*frames)
	}
	st := d.Stats()
	if st.Admitted != streams*frames || st.Executed != streams*frames {
		t.Fatalf("stats %+v", st)
	}
}

func TestConfigDefaults(t *testing.T) {
	d := NewDispatcher(Config{})
	defer d.Close()
	cfg := d.Config()
	if cfg.Workers != runtime.GOMAXPROCS(0) || cfg.QueueDepth != 2*cfg.Workers {
		t.Fatalf("defaults %+v", cfg)
	}
}
