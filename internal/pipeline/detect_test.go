package pipeline

import (
	"testing"

	"advdet/internal/img"
)

func TestNMSKeepsHighestScore(t *testing.T) {
	dets := []Detection{
		{Box: img.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}, Score: 1},
		{Box: img.Rect{X0: 1, Y0: 1, X1: 11, Y1: 11}, Score: 2},
		{Box: img.Rect{X0: 50, Y0: 50, X1: 60, Y1: 60}, Score: 0.5},
	}
	kept := NMS(dets, 0.3)
	if len(kept) != 2 {
		t.Fatalf("NMS kept %d, want 2", len(kept))
	}
	if kept[0].Score != 2 {
		t.Fatalf("first kept score %v, want the highest", kept[0].Score)
	}
}

func TestNMSDisjointBoxesAllKept(t *testing.T) {
	dets := []Detection{
		{Box: img.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}, Score: 1},
		{Box: img.Rect{X0: 20, Y0: 20, X1: 30, Y1: 30}, Score: 2},
		{Box: img.Rect{X0: 40, Y0: 40, X1: 50, Y1: 50}, Score: 3},
	}
	if got := NMS(dets, 0.3); len(got) != 3 {
		t.Fatalf("NMS dropped disjoint boxes: kept %d", len(got))
	}
}

func TestNMSEmpty(t *testing.T) {
	if got := NMS(nil, 0.5); len(got) != 0 {
		t.Fatal("NMS of nil not empty")
	}
}

func TestNMSDoesNotMutateInput(t *testing.T) {
	dets := []Detection{
		{Box: img.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}, Score: 1},
		{Box: img.Rect{X0: 1, Y0: 1, X1: 11, Y1: 11}, Score: 2},
	}
	NMS(dets, 0.3)
	if dets[0].Score != 1 {
		t.Fatal("NMS reordered the caller's slice")
	}
}

func TestKindString(t *testing.T) {
	if KindVehicle.String() != "vehicle" || KindPedestrian.String() != "pedestrian" {
		t.Fatal("Kind strings wrong")
	}
}

func TestBoxes(t *testing.T) {
	dets := []Detection{{Box: img.Rect{X0: 1, Y0: 2, X1: 3, Y1: 4}}}
	b := Boxes(dets)
	if len(b) != 1 || b[0] != dets[0].Box {
		t.Fatal("Boxes extraction wrong")
	}
}
