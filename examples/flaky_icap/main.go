// Flaky ICAP: the resilience layer under deliberate fire. A night
// drive forces a dusk->dark partial reconfiguration while the fault
// plan corrupts the staged dark bitstream AND drops the first PR-done
// interrupt, with the retry budget squeezed to one.
//
// The example shows:
//   - CRC-verified staging catching the corrupt image before it ever
//     reaches the fabric (ErrVerify), and re-staging from PS DDR,
//   - the simulated-time watchdog abandoning the attempt whose
//     completion interrupt was lost (ErrReconfigTimeout),
//   - bounded exponential backoff between retries,
//   - graceful degradation: pedestrian detection on the static
//     partition never misses a frame, and vehicle detection serves the
//     last-good resident model (stale, but live) instead of dropping,
//   - ModeDegraded only once the retry budget is exhausted, and
//     automatic recovery to ModeNominal on the next clean completion,
//   - the unified typed event stream (WithEventSink) carrying
//     every fault, reconfiguration phase and mode transition — the
//     legacy Stats.FaultLog is a derived view of the same stream,
//   - the tamper-evident ledger (WithLedger(nil)): the whole drive
//     hash-chained and Merkle-batched, with an inclusion proof checked
//     at the end.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"advdet"
)

func main() {
	log.SetFlags(0)

	plan := advdet.NewFaultPlan(42).
		CorruptStage("dark", 1).     // boot staging of the dark bitstream
		DropIRQ(advdet.IRQPRDone, 1) // first reconfiguration completion
	eng := advdet.NewEngine(advdet.Detectors{})
	defer eng.Close()
	events := advdet.NewEventLog()
	sys, err := eng.NewStream(
		advdet.WithTimingOnly(),
		advdet.WithInitial(advdet.Dusk),
		advdet.WithMetrics(),
		advdet.WithFaultPlan(plan),
		advdet.WithRetryPolicy(advdet.RetryPolicy{MaxRetries: 1}),
		advdet.WithEventSink(events),
		advdet.WithLedger(nil),
	)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	fmt.Println("drive: 5 dusk frames, then darkness with a corrupt bitstream and a lost interrupt")
	fmt.Println()

	mode := advdet.ModeNominal
	drive := func(cond advdet.Condition, lux float64, n int) {
		sc := advdet.RenderScene(3, 64, 36, cond)
		sc.Lux = lux
		for i := 0; i < n; i++ {
			r, err := sys.Process(ctx, sc)
			if err != nil {
				log.Fatal(err)
			}
			tag := ""
			if r.VehicleDropped {
				tag = "  [vehicle dropped: fabric rewriting]"
			}
			if r.VehicleStale {
				tag = "  [vehicle stale: serving last-good model]"
			}
			if r.Mode != mode {
				mode = r.Mode
				fmt.Printf("frame %3d: mode -> %-10s%s\n", r.Index, mode, tag)
			} else if tag != "" {
				fmt.Printf("frame %3d: %-18s%s\n", r.Index, mode, tag)
			}
		}
	}
	drive(advdet.Dusk, 300, 5)
	drive(advdet.Dark, 5, 45)

	st := sys.Stats()
	fmt.Println()
	fmt.Printf("final mode: %s, loaded configuration: %s\n", sys.Mode(), sys.Loaded())
	fmt.Printf("pedestrian frames: %d of %d (the static partition never stops)\n",
		st.PedestrianFrames, st.Frames)
	fmt.Printf("vehicle frames: %d dropped (fabric busy), %d stale (last-good model)\n",
		st.VehicleDropped, st.StaleVehicleFrames)
	fmt.Printf("faults absorbed: %d verify, %d watchdog, %d retries, %d IRQs dropped\n",
		st.VerifyFailures, st.WatchdogTrips, st.Retries, st.IRQsDropped)
	if len(st.Reconfigs) > 0 {
		r := st.Reconfigs[0]
		fmt.Printf("the dusk->dark transition took %d attempts before completing\n", r.Attempts)
	}

	// The typed event stream is the one subscribable surface for all of
	// the above: faults (typed sentinels, errors.Is-dispatchable),
	// reconfiguration phases and mode transitions, in deterministic
	// order. Stats.FaultLog is a derived view of the same stream.
	fmt.Println("\nevent stream (faults, reconfig phases, mode transitions):")
	for _, ev := range events.Events() {
		switch ev.Kind {
		case advdet.EvFault:
			kind := "other"
			switch {
			case errors.Is(ev.Fault.Err, advdet.ErrVerify):
				kind = "ErrVerify"
			case errors.Is(ev.Fault.Err, advdet.ErrReconfigTimeout):
				kind = "ErrReconfigTimeout"
			case errors.Is(ev.Fault.Err, advdet.ErrBankSelect):
				kind = "ErrBankSelect"
			case ev.Fault.Code == advdet.FaultCodeIRQDrop:
				kind = "IRQ drop"
			}
			fmt.Printf("  frame %3d  fault     attempt %d  %-18s %v\n",
				ev.Frame, ev.Fault.Attempt, kind, ev.Fault.Err)
		case advdet.EvReconfig:
			fmt.Printf("  frame %3d  reconfig  %s -> %s (%s, attempt %d)\n",
				ev.Frame, ev.Reconfig.From, ev.Reconfig.To, ev.Reconfig.Phase, ev.Reconfig.Attempt)
		case advdet.EvModeChange:
			fmt.Printf("  frame %3d  mode      %s -> %s\n",
				ev.Frame, ev.ModeChange.From, ev.ModeChange.To)
		}
	}
	if len(events.FaultRecords()) != len(st.FaultLog) {
		log.Fatal("derived FaultLog view out of sync with the event stream")
	}

	snap := sys.Snapshot()
	fmt.Println("\nmetrics snapshot (fault counters):")
	for _, row := range snap.Faults {
		if row.Count > 0 {
			fmt.Printf("  %-20s %d\n", row.Kind, row.Count)
		}
	}

	// Every event above was also hash-chained into the engine's
	// tamper-evident ledger. Seal the tail batch and check an
	// inclusion proof: event 0 of the chain provably belongs to batch
	// 0 under its sealed Merkle root.
	led := eng.Ledger()
	led.SealOpen()
	nEvents, nBatches := led.Counts()
	anchor := led.AnchorHead()
	fmt.Printf("\nledger: %d events in %d sealed batches, anchor %x...\n",
		nEvents, nBatches, anchor[:8])
	proof, err := led.Prove(0, 0)
	if err != nil {
		log.Fatal(err)
	}
	batch, _ := led.Batch(0)
	fmt.Printf("inclusion proof for event 0: %d siblings, verifies: %v\n",
		len(proof.Path), proof.Verify(batch.Root))
}
