// Multi camera: the fleet-scale API. One Engine — one set of trained
// models, one scan-lane pool, one bounded frame dispatcher — serves
// four concurrent camera streams driving through the same
// day->dusk->dark transit. Each stream keeps its own condition
// monitor, reconfiguration state machine and slot-deadline telemetry.
//
// The example shows:
//   - N streams multiplexed over one engine, processed concurrently,
//   - the determinism contract at fleet scale: every stream's results
//     are identical to a standalone single-stream run,
//   - the capacity rollup: per-stream slot-deadline accounting and the
//     aggregate streams×fps the engine sustained,
//   - the same rollup in Prometheus text exposition format.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"reflect"
	"sync"

	"advdet"
)

func main() {
	log.SetFlags(0)

	fmt.Println("training detectors (Fast quality)...")
	dets, err := advdet.TrainDetectors(11, advdet.Fast)
	if err != nil {
		log.Fatal(err)
	}

	// The drive every camera replays: day -> dusk -> dark and back.
	conds := []advdet.Condition{advdet.Day, advdet.Day, advdet.Dusk, advdet.Dark, advdet.Dark, advdet.Day}
	scenes := make([]*advdet.Scene, len(conds))
	for i, c := range conds {
		scenes[i] = advdet.RenderScene(uint64(500+i), 320, 180, c)
	}

	// Reference: the same drive through a classic standalone System.
	sys, err := advdet.NewSystem(dets)
	if err != nil {
		log.Fatal(err)
	}
	ref := make([]advdet.FrameResult, len(scenes))
	for i, sc := range scenes {
		if ref[i], err = sys.ProcessFrame(sc); err != nil {
			log.Fatal(err)
		}
	}

	// Fleet: four streams on one shared engine, running concurrently.
	const streams = 4
	eng := advdet.NewEngine(dets, advdet.WithQueueDepth(2*streams))
	defer eng.Close()
	ctx := context.Background()

	got := make([][]advdet.FrameResult, streams)
	var wg sync.WaitGroup
	wg.Add(streams)
	for i := 0; i < streams; i++ {
		st, err := eng.NewStream(
			advdet.WithName(fmt.Sprintf("cam-%d", i)),
			advdet.WithMetrics())
		if err != nil {
			log.Fatal(err)
		}
		go func(i int, st *advdet.Stream) {
			defer wg.Done()
			for _, sc := range scenes {
				res, err := st.Process(ctx, sc)
				if err != nil {
					log.Printf("stream %d: %v", i, err)
					return
				}
				got[i] = append(got[i], res)
			}
		}(i, st)
	}
	wg.Wait()

	fmt.Printf("\n%d streams x %d frames through one engine:\n", streams, len(scenes))
	identical := 0
	for i := range got {
		if reflect.DeepEqual(got[i], ref) {
			identical++
		}
	}
	fmt.Printf("  streams byte-identical to the standalone run: %d of %d\n", identical, streams)

	st := eng.FleetStats()
	fmt.Printf("  dispatcher: %d admitted, %d executed, %d shed\n",
		st.Admitted, st.Executed, st.Rejected)

	snap := eng.FleetSnapshot()
	fmt.Printf("\ncapacity rollup (%d active streams):\n", snap.ActiveStreams)
	for _, row := range snap.Streams {
		fmt.Printf("  %-8s %d frames, slot deadline %d hit / %d missed -> %.0f fps sustained\n",
			row.Stream, row.Frames, row.DeadlineHits, row.DeadlineMisses, row.CapacityFPS)
	}
	fmt.Printf("  aggregate: %.0f streams x fps\n", snap.CapacityStreamsFPS)

	fmt.Println("\nPrometheus exposition of the same rollup:")
	if err := eng.WriteFleetProm(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
