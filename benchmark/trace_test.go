package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// Request a: two children, overlapping each other, one sticking
		// out of the parent.
		{ID: "a", Name: "client.post", StartUs: 0, EndUs: 100},
		{ID: "a", Name: "api.handler", Parent: "client.post", StartUs: 10, EndUs: 60},
		{ID: "a", Name: "api.handler", Parent: "client.post", StartUs: 50, EndUs: 120},
		// A grandchild does not count against the grandparent.
		{ID: "a", Name: "engine.submit", Parent: "api.handler", StartUs: 20, EndUs: 30},
		// Request b shares names but not the identifier.
		{ID: "b", Name: "client.post", StartUs: 0, EndUs: 40},
		{ID: "b", Name: "api.handler", Parent: "client.post", StartUs: 5, EndUs: 15},
		// A root with no children keeps its whole duration.
		{ID: "b", Name: "engine.admit_to_place", StartUs: 10, EndUs: 25},
	}
	got := selfTimes(spans)
	want := []float64{
		10, // 100 − covered [10,100]
		40, // 50 − grandchild [20,30]
		70, // no children of its own interval … the grandchild lies outside [50,120]
		10,
		30, // 40 − [5,15]
		10,
		15,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s/%s) = %g, want %g", i, spans[i].ID, spans[i].Name, got[i], want[i])
		}
	}
}

func TestMedianSelfByName(t *testing.T) {
	spans := []span{
		{ID: "a", Name: "client.post", StartUs: 0, EndUs: 10},
		{ID: "a", Name: "api.handler", Parent: "client.post", StartUs: 2, EndUs: 6},
		{ID: "b", Name: "client.post", StartUs: 0, EndUs: 30},
		{ID: "b", Name: "api.handler", Parent: "client.post", StartUs: 0, EndUs: 10},
		{ID: "c", Name: "client.post", StartUs: 0, EndUs: 20},
	}
	m := medianSelfByName(spans)
	if m["client.post"] != 20 || m["api.handler"] != 4 {
		t.Errorf("median self = %v, want client.post 20 (of 6, 20, 20), api.handler 4 (of 4, 10)", m)
	}
}
