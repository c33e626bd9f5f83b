package place

import (
	"math"
	"math/rand"
	"testing"
)

func sameMapPlacement(a, b MapPlacement) bool {
	if math.Float64bits(a.TAggr) != math.Float64bits(b.TAggr) ||
		math.Float64bits(a.TMap) != math.Float64bits(b.TMap) ||
		len(a.Frac) != len(b.Frac) || len(a.Tasks) != len(b.Tasks) {
		return false
	}
	for x := range a.Frac {
		for y := range a.Frac[x] {
			if math.Float64bits(a.Frac[x][y]) != math.Float64bits(b.Frac[x][y]) {
				return false
			}
		}
		for y := range a.Tasks[x] {
			if a.Tasks[x][y] != b.Tasks[x][y] {
				return false
			}
		}
	}
	return true
}

// TestPlaceMapDeterministic re-runs PlaceMap on identical inputs and
// requires bit-identical placements — the end-to-end counterpart of the
// lp package's determinism regression test.
func TestPlaceMapDeterministic(t *testing.T) {
	res := benchResources(8)
	req := benchMapRequest(8, rand.New(rand.NewSource(9)))
	ref, err := Tetrium{}.PlaceMap(res, req)
	if err != nil {
		t.Fatalf("PlaceMap: %v", err)
	}
	for i := 0; i < 5; i++ {
		got, err := Tetrium{}.PlaceMap(res, req)
		if err != nil {
			t.Fatalf("PlaceMap: %v", err)
		}
		if !sameMapPlacement(ref, got) {
			t.Fatalf("run %d: PlaceMap produced different bits on identical input", i)
		}
	}
}
