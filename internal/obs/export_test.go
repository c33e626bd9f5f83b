package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		JobArrival{T: 0, Job: 0, Name: "q1", Stages: 2, Tasks: 3},
		SchedInstance{T: 0, Seq: 1, Considered: 1, Order: []int{0}, FreeSlots: 4, Launched: 2, WallNanos: 987654321},
		Placement{T: 0, Job: 0, Stage: 0, StageKind: "map", Placer: "tetrium",
			Pending: 2, Est: 5.5, TasksBySite: []int{1, 1}, Warm: true, SolveNanos: 123456789},
		TaskLaunch{T: 0, Job: 0, Stage: 0, Task: 0, Site: 1},
		TaskStart{T: 1.5, Job: 0, Stage: 0, Task: 0, Site: 1},
		TaskDone{T: 3, Job: 0, Stage: 0, Task: 0, Site: 1},
		FlowStart{T: 0, Flow: 7, Src: 0, Dst: 1, Bytes: 2e6},
		FlowDone{T: 1.5, Flow: 7, Src: 0, Dst: 1, Bytes: 2e6, Duration: 1.5, AvgRate: 2e6 / 1.5},
		DropEvent{T: 2, Site: 1, Frac: 0.5, NewSlots: 2},
		StageDone{T: 3, Job: 0, Stage: 0},
	}
}

func TestWriteJSONL(t *testing.T) {
	events := sampleEvents()
	var b bytes.Buffer
	if err := WriteJSONL(&b, events); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != len(events) {
		t.Fatalf("lines = %d, want %d", len(lines), len(events))
	}
	for i, line := range lines {
		var rec struct {
			K string          `json:"k"`
			E json.RawMessage `json:"e"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		if rec.K != events[i].Kind() {
			t.Errorf("line %d kind = %q, want %q", i, rec.K, events[i].Kind())
		}
	}
	if !strings.Contains(lines[2], `"warm":true`) {
		t.Errorf("warm-started placement lost its flag: %s", lines[2])
	}
	// Wall-clock fields are excluded so the stream is deterministic.
	if strings.Contains(b.String(), "987654321") || strings.Contains(b.String(), "123456789") {
		t.Error("wall-clock nanos leaked into JSONL stream")
	}

	var b2 bytes.Buffer
	if err := WriteJSONL(&b2, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), b2.Bytes()) {
		t.Error("JSONL not byte-identical across identical event streams")
	}
}

func TestWritePerfetto(t *testing.T) {
	var b bytes.Buffer
	if err := WritePerfetto(&b, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Args struct {
				Route string `json:"route"`
			} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto output not JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	phases := map[string]int{}
	cats := map[string]int{}
	var fetchDur, computeDur float64
	for _, te := range doc.TraceEvents {
		phases[te.Ph]++
		cats[te.Cat]++
		switch te.Cat {
		case "fetch":
			fetchDur = te.Dur
		case "compute":
			computeDur = te.Dur
		case "place":
			if te.Args.Route != "warm" {
				t.Errorf("placement instant route = %q, want warm", te.Args.Route)
			}
		}
	}
	if phases["M"] == 0 || phases["X"] == 0 || phases["i"] == 0 {
		t.Errorf("missing phases: %v", phases)
	}
	for _, cat := range []string{"fetch", "compute", "wan", "sched", "place", "drop"} {
		if cats[cat] == 0 {
			t.Errorf("no %q event in trace: %v", cat, cats)
		}
	}
	// Launch 0 → start 1.5 → done 3, in microseconds.
	if fetchDur != 1.5e6 {
		t.Errorf("fetch dur = %v µs, want 1.5e6", fetchDur)
	}
	if computeDur != 1.5e6 {
		t.Errorf("compute dur = %v µs, want 1.5e6", computeDur)
	}
}

// TestRecorderMetricsFromEvents checks the registry aggregation the
// Recorder derives from a known stream.
func TestRecorderMetricsFromEvents(t *testing.T) {
	r := NewRecorder()
	for _, ev := range sampleEvents() {
		r.Emit(ev)
	}
	reg := r.Registry()
	checks := map[string]float64{
		"jobs.arrived":          1,
		"sched.instances":       1,
		"lp.solves":             1,
		"lp.warm_solves":        1,
		"tasks.launched":        1,
		"tasks.done":            1,
		"wan.flows":             1,
		"wan.bytes":             2e6,
		"wan.bytes.up.site00":   2e6,
		"wan.bytes.down.site01": 2e6,
		"drops":                 1,
	}
	for name, want := range checks {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("counter %s = %v, want %v", name, got, want)
		}
	}
	if got := reg.Histogram("task.fetch_s", 0.1, 2, 24).Mean(); got != 1.5 {
		t.Errorf("task.fetch_s mean = %v, want 1.5", got)
	}
	if got := reg.Histogram("task.compute_s", 0.1, 2, 24).Mean(); got != 1.5 {
		t.Errorf("task.compute_s mean = %v, want 1.5", got)
	}
	// Busy-slot series for site 1: up to 1 at t=0, back to 0 at t=3.
	s := reg.Series("slots.busy.site01")
	if s.Len() != 2 || s.Max() != 1 {
		t.Errorf("slots.busy.site01 len=%d max=%v", s.Len(), s.Max())
	}
}

// TestRecorderKeepEventsOff checks that disabling retention still
// aggregates metrics.
func TestRecorderKeepEventsOff(t *testing.T) {
	r := NewRecorder()
	r.KeepEvents = false
	for _, ev := range sampleEvents() {
		r.Emit(ev)
	}
	if len(r.Events()) != 0 {
		t.Errorf("events retained despite KeepEvents=false: %d", len(r.Events()))
	}
	if got := r.Registry().Counter("tasks.done").Value(); got != 1 {
		t.Errorf("tasks.done = %v, want 1", got)
	}
}
