package advdet

import (
	"errors"
	"reflect"
	"testing"
)

// TestOptionScopesResolveAlike pins the single option namespace: every
// setting resolves to the same System().Opt whether given to
// NewSystem, to NewEngine as a stream default, or to NewStream; a
// stream option overrides the engine default; and every misplaced
// option fails with ErrMisplacedOption.
func TestOptionScopesResolveAlike(t *testing.T) {
	sink := NewEventLog()
	plan := NewFaultPlan(7)
	settings := []struct {
		name string
		opt  Option
		// check inspects a stream or system built with the option; nil
		// means the option must change Opt from the defaults.
		check func(*System) bool
	}{
		{"WithFPS", WithFPS(30), nil},
		{"WithBitstreamBytes", WithBitstreamBytes(4 << 20), nil},
		{"WithInitial", WithInitial(Dark), nil},
		{"WithParallelism", WithParallelism(3), nil},
		{"WithTimingOnly", WithTimingOnly(), nil},
		{"WithSenseFromImage", WithSenseFromImage(), nil},
		{"WithTracking", WithTracking(), nil},
		{"WithMetrics", WithMetrics(), nil},
		{"WithFaultPlan", WithFaultPlan(plan), nil},
		{"WithRetryPolicy", WithRetryPolicy(RetryPolicy{MaxRetries: 5}), nil},
		{"WithTemporalCache", WithTemporalCache(), nil},
		{"WithEventSink", WithEventSink(sink), nil},
		{"WithLedger(nil)", WithLedger(nil), func(s *System) bool { return s.Ledger() != nil }},
	}
	// resolved drops the per-instance fields the forms legitimately
	// differ in.
	resolved := func(s *System) SystemOptions {
		o := s.Opt
		o.StreamID, o.Ledger = 0, nil
		return o
	}
	base, err := NewSystem(Detectors{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range settings {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := NewSystem(Detectors{}, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			engDefault := NewEngine(Detectors{}, tc.opt)
			defer engDefault.Close()
			viaEngine, err := engDefault.NewStream()
			if err != nil {
				t.Fatal(err)
			}
			engPlain := NewEngine(Detectors{})
			defer engPlain.Close()
			viaStream, err := engPlain.NewStream(tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			want := resolved(sys)
			for form, got := range map[string]*System{"engine default": viaEngine.System(), "stream option": viaStream.System()} {
				if g := resolved(got); !reflect.DeepEqual(g, want) {
					t.Errorf("%s: Opt = %+v, NewSystem gives %+v", form, g, want)
				}
			}
			for _, s := range []*System{sys, viaEngine.System(), viaStream.System()} {
				if tc.check != nil && !tc.check(s) {
					t.Errorf("setting not applied: %+v", s.Opt)
				}
			}
			if tc.check == nil && reflect.DeepEqual(want, resolved(base)) {
				t.Errorf("option left Opt at the defaults")
			}
		})
	}

	t.Run("stream overrides engine default", func(t *testing.T) {
		// Three engine sinks leave spare capacity in the defaults'
		// slice, which a stream's own sink must not write into.
		eng := NewEngine(Detectors{}, WithFPS(25), WithParallelism(1),
			WithEventSink(sink), WithEventSink(sink), WithEventSink(sink))
		defer eng.Close()
		own := NewEventLog()
		st, err := eng.NewStream(WithFPS(30), WithParallelism(3), WithEventSink(own))
		if err != nil {
			t.Fatal(err)
		}
		sibOwn := NewEventLog()
		sib, err := eng.NewStream(WithEventSink(sibOwn))
		if err != nil {
			t.Fatal(err)
		}
		opt := st.System().Opt
		if opt.FPS != 30 || opt.Parallelism != 3 {
			t.Fatalf("stream options did not override: FPS %d, Parallelism %d", opt.FPS, opt.Parallelism)
		}
		if o := sib.System().Opt; o.FPS != 25 || o.Parallelism != 1 {
			t.Fatalf("sibling stream: FPS %d, Parallelism %d; want the engine defaults", o.FPS, o.Parallelism)
		}
		for _, c := range []struct {
			st  *Stream
			own *EventLog
		}{{st, own}, {sib, sibOwn}} {
			sinks := c.st.System().Opt.EventSinks
			if len(sinks) != 4 || sinks[0] != EventSink(sink) || sinks[3] != EventSink(c.own) {
				t.Fatalf("stream %s sinks %v: want the engine's three, then its own", c.st.Name(), sinks)
			}
		}
		// WithParallelism on NewEngine sized the shared pool; the
		// stream's own value only caps its per-frame grant. On
		// NewSystem it sizes the private pool.
		if got := st.System().Engine().Pool().Size(); got != 1 {
			t.Fatalf("lane pool size %d, want the engine's 1", got)
		}
		sys, err := NewSystem(Detectors{}, WithParallelism(3))
		if err != nil {
			t.Fatal(err)
		}
		if got := sys.Engine().Pool().Size(); got != 3 {
			t.Fatalf("NewSystem lane pool size %d, want 3", got)
		}
	})

	t.Run("ledger scope", func(t *testing.T) {
		led := NewLedger(LedgerConfig{})
		sys, err := NewSystem(Detectors{}, WithLedger(led))
		if err != nil {
			t.Fatal(err)
		}
		if sys.Ledger() != led {
			t.Fatal("NewSystem: WithLedger(led) did not install the caller's ledger")
		}
		eng := NewEngine(Detectors{}, WithLedger(nil))
		defer eng.Close()
		a, err := eng.NewStream()
		if err != nil {
			t.Fatal(err)
		}
		b, err := eng.NewStream()
		if err != nil {
			t.Fatal(err)
		}
		if eng.Ledger() == nil || a.System().Ledger() != eng.Ledger() || b.System().Ledger() != eng.Ledger() {
			t.Fatal("engine-default WithLedger(nil) did not enroll every stream in the shared ledger")
		}
	})

	t.Run("misplaced", func(t *testing.T) {
		led := NewLedger(LedgerConfig{})
		onSystem := map[string]Option{
			"WithName":         WithName("cam"),
			"WithFleetWorkers": WithFleetWorkers(2),
			"WithQueueDepth":   WithQueueDepth(4),
		}
		for name, o := range onSystem {
			if _, err := NewSystem(Detectors{}, o); !errors.Is(err, ErrMisplacedOption) {
				t.Errorf("NewSystem(%s): err = %v, want ErrMisplacedOption", name, err)
			}
		}
		onEngine := map[string]Option{
			"WithName":        WithName("cam"),
			"WithLedger(led)": WithLedger(led),
		}
		for name, o := range onEngine {
			eng := NewEngine(Detectors{}, o)
			for i := 0; i < 2; i++ {
				if _, err := eng.NewStream(); !errors.Is(err, ErrMisplacedOption) {
					t.Errorf("NewEngine(%s).NewStream() #%d: err = %v, want ErrMisplacedOption", name, i, err)
				}
			}
			eng.Close()
		}
		onStream := map[string]Option{
			"WithFleetWorkers": WithFleetWorkers(2),
			"WithQueueDepth":   WithQueueDepth(4),
			"WithLedger(led)":  WithLedger(led),
		}
		eng := NewEngine(Detectors{})
		defer eng.Close()
		for name, o := range onStream {
			if _, err := eng.NewStream(o); !errors.Is(err, ErrMisplacedOption) {
				t.Errorf("NewStream(%s): err = %v, want ErrMisplacedOption", name, err)
			}
		}
		// The scope-restricted settings are accepted where they apply.
		fleetEng := NewEngine(Detectors{}, WithFleetWorkers(2), WithQueueDepth(4))
		defer fleetEng.Close()
		st, err := fleetEng.NewStream(WithName("cam"))
		if err != nil {
			t.Fatal(err)
		}
		if st.Name() != "cam" {
			t.Fatalf("stream name %q, want cam", st.Name())
		}
		if !reflect.DeepEqual(resolved(st.System()), resolved(base)) {
			t.Fatalf("fleet settings leaked into the stream's Opt: %+v", st.System().Opt)
		}
	})
}
