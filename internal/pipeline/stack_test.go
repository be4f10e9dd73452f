package pipeline

import (
	"context"
	"reflect"
	"testing"

	"advdet/internal/img"
	"advdet/internal/synth"
)

// TestFrameStackSharedScansMatchStandalone scans each frame of a fixed
// camera's sequence with several detectors over one FrameStack, in
// different orders, and checks every scan against the detector's
// standalone cold scan. The orders cover a descriptor-path scan that
// builds the levels without block grids before a block-path scan
// needs them, and a pedestrian scan that widens the pyramid a vehicle
// scan built (the tall frame fits more pedestrian levels than vehicle
// levels).
func TestFrameStackSharedScansMatchStandalone(t *testing.T) {
	veh := NewDayDuskDetector(trainSmall(t, synth.DayDataset(760, 64, 64, 40, 40)))
	veh.DetectThresh = -0.25
	desc := *veh
	desc.NoBlockResponse = true
	ped := trainPed(t, 761)
	ped.DetectThresh = 0
	orders := []struct {
		name string
		dets []*HOGDetector
	}{
		{"descriptor-then-blocks", []*HOGDetector{&desc, veh, ped}},
		{"vehicle-then-pedestrian", []*HOGDetector{veh, ped}},
		{"pedestrian-then-vehicle", []*HOGDetector{ped, veh}},
	}
	ctx := context.Background()
	for _, shape := range []struct{ w, h int }{{256, 144}, {96, 400}} {
		sh := synth.NewStaticHighway(762, shape.w, shape.h, synth.Day, 2)
		for _, order := range orders {
			for _, temporal := range []bool{false, true} {
				fs := NewFrameStack(veh, temporal)
				rows := make([]RowCache, len(order.dets))
				found := 0
				for i := 0; i < 6; i++ {
					frame := sh.Frame(i).Frame
					g := img.RGBToGray(frame)
					fs.Begin(frame)
					for k, d := range order.dets {
						got, err := d.DetectStackCtx(ctx, fs, &rows[k], 1, nil)
						if err != nil {
							t.Fatal(err)
						}
						want, err := d.DetectCtx(ctx, g, 1)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%dx%d %s temporal=%v frame %d scan %d: shared-stack detections differ:\n got %v\nwant %v",
								shape.w, shape.h, order.name, temporal, i, k, got, want)
						}
						found += len(got)
					}
					fs.End()
				}
				if found == 0 {
					t.Fatalf("%dx%d %s: no detections to compare", shape.w, shape.h, order.name)
				}
			}
		}
	}
}
