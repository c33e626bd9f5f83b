package main

import (
	"bytes"
	"testing"
	"time"
)

func testPlan() plan {
	return plan{windows: []time.Duration{500 * time.Millisecond}, closed: 100 * time.Millisecond, direct: 100 * time.Millisecond, keepJobs: true}
}

// The same seed must give the same arrival schedule and the same
// request bodies; another seed must not.
func TestSeedFixesInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := generateInputs(w, 7, testPlan())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := generateInputs(w, 7, testPlan())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		c, err := generateInputs(w, 8, testPlan())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		pa, pb, pc := a.passes[0], b.passes[0], c.passes[0]
		if len(pa.ops) == 0 || len(pa.ops) != len(pb.ops) {
			t.Fatalf("%s: %d vs %d ops from one seed", w.name, len(pa.ops), len(pb.ops))
		}
		for i := range pa.ops {
			x, y := pa.ops[i], pb.ops[i]
			if x.due != y.due || x.kind != y.kind || x.job != y.job || x.pick != y.pick || !bytes.Equal(x.body, y.body) {
				t.Fatalf("%s: op %d differs between two generations of seed 7", w.name, i)
			}
		}
		for i := range pa.jobs {
			if !bytes.Equal(pa.jobs[i].body, pb.jobs[i].body) {
				t.Fatalf("%s: body %d differs between two generations of seed 7", w.name, i)
			}
		}
		for i := range a.closed {
			if !bytes.Equal(a.closed[i].body, b.closed[i].body) {
				t.Fatalf("%s: closed-loop body %d differs between two generations of seed 7", w.name, i)
			}
		}
		same := len(pa.ops) == len(pc.ops)
		for i := 0; same && i < len(pa.ops); i++ {
			same = pa.ops[i].due == pc.ops[i].due
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
		if len(a.parked) != w.residents {
			t.Errorf("%s: %d residents generated, want %d", w.name, len(a.parked), w.residents)
		}
		// Schedules are ascending, update-storm's ends on a restore.
		last := opSubmit
		for i, o := range pa.ops {
			if i > 0 && o.due < pa.ops[i-1].due {
				t.Fatalf("%s: schedule not ascending at op %d", w.name, i)
			}
			if o.kind == opShrink || o.kind == opRestore {
				last = o.kind
			}
		}
		if w.updateRate > 0 && last != opRestore {
			t.Errorf("%s: the last update is a %v, capacities would not end at the originals", w.name, last)
		}
		a.bodies.release()
		b.bodies.release()
		c.bodies.release()
	}
}

// The recurring share must actually repeat bodies, and only there.
func TestRecurringTemplates(t *testing.T) {
	for _, w := range workloads {
		in, err := generateInputs(w, 3, plan{windows: []time.Duration{4 * time.Second}})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		// Bodies differ in the job name; compare what follows it.
		seen := map[string]int{}
		for _, j := range in.passes[0].jobs {
			i := bytes.Index(j.body, []byte(`"stages"`))
			seen[string(j.body[i:])]++
		}
		repeats := len(in.passes[0].jobs) - len(seen)
		if w.recurring == 0 && repeats != 0 {
			t.Errorf("%s: %d repeated job bodies in a workload of distinct jobs", w.name, repeats)
		}
		if w.recurring > 0 && repeats == 0 {
			t.Errorf("%s: no repeated job body although %.0f%% of arrivals recur", w.name, 100*w.recurring)
		}
		in.bodies.release()
	}
}

func TestJSONIntField(t *testing.T) {
	body := []byte(`{"id":4211,"name":"open0-3","state":"pending"}`)
	if v, ok := jsonIntField(body, `"id":`); !ok || v != 4211 {
		t.Errorf("id = %d, %v", v, ok)
	}
	if _, ok := jsonIntField(body, `"stages_replaced":`); ok {
		t.Error("found a field that is not there")
	}
	if v, ok := jsonIntField([]byte(`{"stages_replaced":17}`), `"stages_replaced":`); !ok || v != 17 {
		t.Errorf("stages_replaced = %d, %v", v, ok)
	}
}

func TestRecentIDs(t *testing.T) {
	var r recentIDs
	if _, ok := r.pick(5); ok {
		t.Fatal("picked from an empty ring")
	}
	for i := 0; i < 1000; i++ {
		r.add(i)
	}
	for c := uint32(0); c < 600; c++ {
		id, ok := r.pick(c)
		if !ok || id < 1000-256 || id > 999 {
			t.Fatalf("pick(%d) = %d, want one of the latest 256 IDs", c, id)
		}
	}
}
