package adaptive

import (
	"bytes"
	"errors"
	"testing"

	"advdet/internal/fault"
	"advdet/internal/ledger"
	"advdet/internal/pr"
	"advdet/internal/soc"
	"advdet/internal/synth"
)

// eventSystem builds a timing-only system with an EventLog sink (and
// optionally a ledger) attached.
func eventSystem(t *testing.T, plan *fault.Plan, led *ledger.Ledger) (*System, *EventLog) {
	t.Helper()
	events := NewEventLog()
	opt := DefaultOptions()
	opt.Initial = synth.Dusk
	opt.RunDetectors = false
	opt.FaultPlan = plan
	opt.Retry = RetryPolicy{MaxRetries: 1}
	opt.EnableMetrics = true
	opt.EventSinks = []EventSink{events}
	opt.Ledger = led
	s, err := bootSystem(Detectors{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s, events
}

// faultyDrive is the standard fire drill: corrupt dark staging plus a
// dropped PR-done IRQ, driven dusk -> dark.
func faultyDrive(t *testing.T, led *ledger.Ledger) (*System, *EventLog) {
	t.Helper()
	plan := fault.NewPlan(42).CorruptStage(CfgDark.String(), 1).DropIRQ(soc.IRQPRDone, 1)
	s, events := eventSystem(t, plan, led)
	driveToDark(s, 5, 45)
	return s, events
}

// TestEventStreamSequence: the unified stream must carry one EvFrame
// per processed frame (indices ascending and matching), every fault,
// every reconfiguration phase in order, and the mode transitions.
func TestEventStreamSequence(t *testing.T) {
	s, events := faultyDrive(t, nil)
	st := s.Stats()

	frames := events.Kind(EvFrame)
	if len(frames) != st.Frames {
		t.Fatalf("EvFrame events = %d, want one per frame (%d)", len(frames), st.Frames)
	}
	for i, ev := range frames {
		if int(ev.Frame) != i {
			t.Fatalf("frame event %d carries index %d", i, ev.Frame)
		}
		if ev.Verdict.Mode < ModeNominal || ev.Verdict.Mode > ModeDegraded {
			t.Fatalf("frame event %d: bad mode %v", i, ev.Verdict.Mode)
		}
	}

	// Events arrive in simulated-time order.
	all := events.Events()
	for i := 1; i < len(all); i++ {
		if all[i].PS < all[i-1].PS {
			t.Fatalf("event %d out of ps order: %d after %d", i, all[i].PS, all[i-1].PS)
		}
	}

	// The fire drill produces a verify failure and a watchdog trip, both
	// typed and errors.Is-dispatchable off the stream.
	var sawVerify, sawTimeout, sawIRQ bool
	for _, ev := range events.Kind(EvFault) {
		switch {
		case errors.Is(ev.Fault.Err, pr.ErrVerify):
			sawVerify = true
			if ev.Fault.Code != FaultCodeVerify {
				t.Fatalf("verify fault coded %v", ev.Fault.Code)
			}
		case errors.Is(ev.Fault.Err, pr.ErrTimeout):
			sawTimeout = true
			if ev.Fault.Code != FaultCodeTimeout {
				t.Fatalf("timeout fault coded %v", ev.Fault.Code)
			}
		case ev.Fault.Err == nil:
			if ev.Fault.Code != FaultCodeIRQDrop {
				t.Fatalf("errorless fault coded %v, want irq-drop", ev.Fault.Code)
			}
			sawIRQ = true
		}
	}
	if !sawVerify || !sawTimeout || !sawIRQ {
		t.Fatalf("missing faults on the stream: verify=%v timeout=%v irq=%v", sawVerify, sawTimeout, sawIRQ)
	}

	// Reconfiguration phases: a Requested always precedes the first
	// Launched; every Completed carries a nonzero elapsed span.
	recfg := events.Kind(EvReconfig)
	if len(recfg) == 0 {
		t.Fatal("no reconfig events on the stream")
	}
	if recfg[0].Reconfig.Phase != ReconfigRequested {
		t.Fatalf("first reconfig phase = %v, want requested", recfg[0].Reconfig.Phase)
	}
	var completed bool
	for _, ev := range recfg {
		if ev.Reconfig.Phase == ReconfigCompleted {
			completed = true
			if ev.Reconfig.ElapsedPS == 0 {
				t.Fatal("completed reconfig with zero elapsed span")
			}
			if ev.Reconfig.To != CfgDark {
				t.Fatalf("completed reconfig lands on %v, want dark", ev.Reconfig.To)
			}
		}
	}
	if !completed {
		t.Fatal("no completed reconfiguration on the stream")
	}

	// Mode transitions mirror the drive: nominal -> recovering ->
	// degraded -> nominal, each From continuing where the last To left
	// off.
	modes := events.Kind(EvModeChange)
	if len(modes) != 3 {
		t.Fatalf("mode transitions = %d, want 3 (recovering, degraded, recovered)", len(modes))
	}
	prev := ModeNominal
	for i, ev := range modes {
		if ev.ModeChange.From != prev {
			t.Fatalf("transition %d continues from %v, previous left %v", i, ev.ModeChange.From, prev)
		}
		prev = ev.ModeChange.To
	}
	if modes[1].ModeChange.To != ModeDegraded || prev != ModeNominal {
		t.Fatalf("drive never degraded and recovered: %v, final %v", modes[1].ModeChange.To, prev)
	}
}

// TestFaultLogIsDerivedView: Stats.FaultLog must be exactly the
// EvFault events that carry an error — same order, same fields.
func TestFaultLogIsDerivedView(t *testing.T) {
	s, events := faultyDrive(t, nil)
	st := s.Stats()
	derived := events.FaultRecords()
	if len(derived) != len(st.FaultLog) {
		t.Fatalf("derived view has %d records, FaultLog has %d", len(derived), len(st.FaultLog))
	}
	for i := range derived {
		d, f := derived[i], st.FaultLog[i]
		if d.PS != f.PS || d.Frame != f.Frame || d.Target != f.Target ||
			d.Attempt != f.Attempt || !errors.Is(d.Err, f.Err) {
			t.Fatalf("record %d: derived %+v != FaultLog %+v", i, d, f)
		}
	}
}

// TestEventAppendBinaryStable pins the canonical encoding: the ledger
// chains these exact bytes, so any change here is a breaking change to
// recorded drives and must be deliberate.
func TestEventAppendBinaryStable(t *testing.T) {
	ev := Event{
		Kind:   EvReconfig,
		Stream: 3,
		Frame:  7,
		PS:     0x0102030405060708,
		Reconfig: ReconfigEvent{
			Phase:     ReconfigCompleted,
			From:      CfgDayDusk,
			To:        CfgDark,
			Attempt:   2,
			ElapsedPS: 0x1122334455667788,
		},
	}
	want := []byte{
		0, 0, 0, 2, // kind
		0, 0, 0, 3, // stream
		0, 0, 0, 7, // frame
		1, 2, 3, 4, 5, 6, 7, 8, // ps
		0, 0, 0, 2, // phase (completed)
		0, 0, 0, byte(CfgDayDusk), // from
		0, 0, 0, byte(CfgDark), // to
		0, 0, 0, 2, // attempt
		0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, // elapsed
	}
	got := ev.AppendBinary(nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding drifted:\n got %x\nwant %x", got, want)
	}
	// Appending must extend, not clobber, the destination.
	pre := []byte{0xAA, 0xBB}
	got = ev.AppendBinary(pre)
	if !bytes.Equal(got[:2], pre) || !bytes.Equal(got[2:], want) {
		t.Fatal("AppendBinary clobbered its destination prefix")
	}

	// A fault event flattens its error into length-prefixed message
	// bytes; nil errors encode a zero length.
	fe := Event{Kind: EvFault, Fault: FaultEvent{Code: FaultCodeIRQDrop, Target: CfgDark, Attempt: 1}}
	enc := fe.AppendBinary(nil)
	if len(enc) != 20+4+4+4+4 {
		t.Fatalf("errorless fault encodes to %d bytes, want %d", len(enc), 36)
	}
}

// TestEventLogNoAliasing: Events and Kind hand back copies; mutating
// them cannot corrupt the log.
func TestEventLogNoAliasing(t *testing.T) {
	l := NewEventLog()
	l.Emit(Event{Kind: EvFrame, Frame: 1})
	l.Emit(Event{Kind: EvFault, Frame: 2})
	evs := l.Events()
	evs[0].Frame = 99
	if l.Events()[0].Frame != 1 {
		t.Fatal("mutating Events() corrupted the log")
	}
	ks := l.Kind(EvFault)
	ks[0].Frame = 99
	if l.Kind(EvFault)[0].Frame != 2 {
		t.Fatal("mutating Kind() corrupted the log")
	}
	if l.Len() != 2 {
		t.Fatalf("len = %d, want 2", l.Len())
	}
}

// TestLedgerFedOffEventStream: with a ledger installed the system
// chains every emitted event, and two identical drives produce
// identical chain heads — the recording is deterministic.
func TestLedgerFedOffEventStream(t *testing.T) {
	led1 := ledger.New(ledger.Config{})
	_, ev1 := faultyDrive(t, led1)
	led2 := ledger.New(ledger.Config{})
	faultyDrive(t, led2)

	if led1.ChainLen(0) != ev1.Len() {
		t.Fatalf("ledger chained %d events, stream carried %d", led1.ChainLen(0), ev1.Len())
	}
	h1, ok1 := led1.ChainHead(0)
	h2, ok2 := led2.ChainHead(0)
	if !ok1 || !ok2 {
		t.Fatal("missing stream-0 chain")
	}
	if h1 != h2 {
		t.Fatal("identical drives produced different chain heads")
	}
	// And the chained bytes are exactly the canonical encodings.
	events := ev1.Events()
	for i, ev := range events {
		_, payload := led1.Record(0, i)
		if !bytes.Equal(payload, ev.AppendBinary(nil)) {
			t.Fatalf("ledger record %d differs from the event's canonical encoding", i)
		}
	}
}
