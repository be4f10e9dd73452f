// Command ledgerverify exercises the tamper-evident detection ledger
// end to end: it records a fault-injected multi-stream drive into a
// ledger, serializes it, reads it back, and verifies everything an
// auditor could check offline —
//
//   - the per-stream hash chains (every event's canonical bytes, in
//     order),
//   - every sealed batch's Merkle root and the anchor chain over the
//     roots,
//   - a sample of inclusion proofs, recomputed from the raw payloads,
//   - and a deterministic replay of the same drive, whose chain heads
//     must match the recording bit for bit.
//
// With -tamper it additionally flips one byte of one recorded event
// and demonstrates that verification pinpoints the tampered record and
// its batch. Exit status is 0 only if every check lands.
//
// Usage:
//
//	ledgerverify [-streams n] [-frames n] [-fps n] [-out file]
//	             [-sample n] [-seed n] [-tamper] [-keep]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"

	"advdet"
	"advdet/internal/ledger"
	"advdet/internal/pipeline"
	"advdet/internal/svm"
)

func main() {
	log.SetFlags(0)
	streams := flag.Int("streams", 3, "concurrent camera streams")
	frames := flag.Int("frames", 120, "frames per stream")
	fps := flag.Int("fps", 50, "camera frame rate")
	out := flag.String("out", "", "record the ledger to this file (default: a temp file)")
	sample := flag.Int("sample", 8, "inclusion proofs to sample and verify")
	seed := flag.Uint64("seed", 7, "seed for the fault plans and proof sampling")
	tamper := flag.Bool("tamper", false, "flip one recorded byte and require verification to pinpoint it")
	keep := flag.Bool("keep", false, "keep the recorded file")
	flag.Parse()

	path := *out
	if path == "" {
		f, err := os.CreateTemp("", "advdet-ledger-*.bin")
		if err != nil {
			log.Fatal(err)
		}
		path = f.Name()
		f.Close()
	}
	if !*keep && *out == "" {
		defer os.Remove(path)
	}

	// Record: drive the fleet with faults injected, every stream
	// chained into the engine-level ledger.
	led, heads := drive(*streams, *frames, *fps, *seed)
	led.SealOpen()
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	n, err := led.WriteTo(f)
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		log.Fatal(err)
	}
	nEvents, nBatches := led.Counts()
	fmt.Printf("recorded: %d streams, %d events, %d batches, %d bytes -> %s\n",
		*streams, nEvents, nBatches, n, path)

	// Read back and verify every hash layer from the raw bytes.
	rf, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	lg, err := ledger.ReadLog(rf)
	rf.Close()
	if err != nil {
		log.Fatal(err)
	}
	rep := ledger.VerifyLog(lg)
	fmt.Printf("verify: %d events, %d batches, %d chains: ok=%v\n",
		rep.Events, rep.Batches, rep.Streams, rep.OK)
	if !rep.OK {
		log.Fatalf("ledger verification failed: badBatch=%d badStream=%d badSeq=%d err=%v",
			rep.BadBatch, rep.BadStream, rep.BadSeq, rep.Err)
	}

	// Sampled inclusion proofs, recomputed from payloads.
	rng := xorshift(*seed | 1)
	verified := 0
	for i := 0; i < *sample && len(lg.Batches) > 0; i++ {
		bi := int(rng() % uint64(len(lg.Batches)))
		li := int(rng() % uint64(len(lg.Batches[bi].Leaves)))
		proof, err := lg.Prove(bi, li)
		if err != nil {
			log.Fatal(err)
		}
		if !proof.Verify(lg.Batches[bi].Root) {
			log.Fatalf("inclusion proof failed: batch %d leaf %d", bi, li)
		}
		verified++
	}
	fmt.Printf("inclusion proofs: %d/%d sampled proofs verify\n", verified, *sample)

	// Replay the identical drive and require identical chain heads:
	// the recording commits to exactly what a rerun produces.
	_, replayHeads := drive(*streams, *frames, *fps, *seed)
	for i := range lg.Streams {
		sl := &lg.Streams[i]
		h, ok := replayHeads[sl.Stream]
		if !ok || h != sl.Head {
			log.Fatalf("replay: stream %d chain head does not match the recording", sl.Stream)
		}
	}
	if len(heads) != len(lg.Streams) || len(replayHeads) != len(lg.Streams) {
		log.Fatalf("replay: %d recorded chains, %d live, %d replayed",
			len(lg.Streams), len(heads), len(replayHeads))
	}
	fmt.Printf("replay: %d stream chain heads match the recording\n", len(lg.Streams))

	if *tamper {
		// Flip one byte of one sealed event and require the verifier
		// to pinpoint its batch.
		tb := int(rng() % uint64(len(lg.Batches)))
		ref := lg.Batches[tb].Leaves[int(rng()%uint64(len(lg.Batches[tb].Leaves)))]
		for i := range lg.Streams {
			if lg.Streams[i].Stream == ref.Stream {
				p := lg.Streams[i].Payloads[ref.Seq]
				p[int(rng()%uint64(len(p)))] ^= 0x40
			}
		}
		trep := ledger.VerifyLog(lg)
		if trep.OK || trep.BadBatch != tb || trep.BadStream != ref.Stream || trep.BadSeq != int64(ref.Seq) {
			log.Fatalf("tamper NOT pinpointed: flipped stream=%d seq=%d (batch %d), report ok=%v badBatch=%d badStream=%d badSeq=%d",
				ref.Stream, ref.Seq, tb, trep.OK, trep.BadBatch, trep.BadStream, trep.BadSeq)
		}
		fmt.Printf("tamper: flipped one byte of stream %d event %d; verification pinpointed batch %d, record (%d,%d)\n",
			ref.Stream, ref.Seq, trep.BadBatch, trep.BadStream, trep.BadSeq)
	}
	fmt.Println("ledger verified end to end")
}

// drive runs the fault-injected multi-stream scenario: each stream
// crosses day -> dusk -> dark -> day (a free model switch plus two
// real reconfigurations), with a corrupted dark bitstream on every
// stream and a dropped PR-done IRQ on the even ones. Streams run
// concurrently through the engine's dispatcher; their chains are
// independent, so the recording is deterministic per stream no matter
// how execution interleaves.
func drive(streams, frames, fps int, seed uint64) (*advdet.Ledger, map[int32]ledger.Hash) {
	dets := advdet.Detectors{
		Day:  pipeline.NewDayDuskDetector(&svm.Model{W: make([]float64, 1)}),
		Dusk: pipeline.NewDayDuskDetector(&svm.Model{W: make([]float64, 1)}),
	}
	// Every stream is a timing-only camera enrolled in the engine's
	// shared ledger; only its fault plan differs.
	eng := advdet.NewEngine(dets,
		advdet.WithTimingOnly(),
		advdet.WithFPS(fps),
		advdet.WithLedger(nil))
	defer eng.Close()

	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		plan := advdet.NewFaultPlan(seed+uint64(i)).CorruptStage("dark", 1)
		if i%2 == 0 {
			plan.DropIRQ(advdet.IRQPRDone, 1)
		}
		cam, err := eng.NewStream(advdet.WithFaultPlan(plan))
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			runStream(cam, frames, uint64(id))
		}(i)
	}
	wg.Wait()
	led := eng.Ledger()
	heads := make(map[int32]ledger.Hash)
	for _, id := range led.Streams() {
		h, _ := led.ChainHead(id)
		heads[id] = h
	}
	return led, heads
}

func runStream(cam *advdet.Stream, frames int, seed uint64) {
	ctx := context.Background()
	seg := frames / 4
	for i := 0; i < frames; i++ {
		var cond advdet.Condition
		var lux float64
		switch {
		case i < seg:
			cond, lux = advdet.Day, 10000
		case i < 2*seg:
			cond, lux = advdet.Dusk, 300
		case i < 3*seg:
			cond, lux = advdet.Dark, 5
		default:
			cond, lux = advdet.Day, 10000
		}
		sc := advdet.RenderScene(seed+uint64(i), 64, 36, cond)
		sc.Lux = lux
		if _, err := cam.Process(ctx, sc); err != nil {
			log.Fatal(err)
		}
	}
}

// xorshift returns a deterministic pseudo-random source for proof
// sampling (the repo bans ambient math/rand).
func xorshift(s uint64) func() uint64 {
	if s == 0 {
		s = 1
	}
	return func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
}
