package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// WriteJSONL writes the event stream as JSON Lines: one object per
// event, `{"k":"<kind>","e":{...}}`, in emission order. The output is
// byte-identical for two same-seed runs: every serialized field derives
// from simulated state (wall-clock fields carry `json:"-"`), struct
// fields marshal in declaration order, and emission order is the
// engine's deterministic event order.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		rec := struct {
			K string `json:"k"`
			E Event  `json:"e"`
		}{ev.Kind(), ev}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Perfetto / Chrome trace_event export ------------------------------------

// traceEvent is one entry of the Chrome trace_event format (Perfetto's
// JSON ingestion format): "X" complete slices with ts/dur, "i" instants,
// and "M" metadata records naming processes and threads.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`            // microseconds
	Dur  float64           `json:"dur,omitempty"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"` // instant scope
	Args map[string]string `json:"args,omitempty"`
}

// Track layout: one Perfetto "process" per site holding its task
// slices (one "thread" per job), plus synthetic processes for the WAN
// (one thread per (src,dst) link pair) and the scheduler (instants for
// scheduling instances, placements, and drops).
const (
	pidWAN   = 100000
	pidSched = 100001
)

// WritePerfetto renders the event stream as Perfetto-loadable JSON
// (load the file at https://ui.perfetto.dev): tasks appear as fetch and
// compute slices per site, WAN transfers as slices per link pair, and
// scheduling instances / placements / drops as instants.
func WritePerfetto(w io.Writer, events []Event) error {
	const us = 1e6 // simulated seconds → trace microseconds
	var out []traceEvent

	type procThread struct{ pid, tid int }
	procs := map[int]string{pidWAN: "WAN", pidSched: "scheduler"}
	threads := map[procThread]string{}

	launches := make(map[attemptKey]TaskLaunch)
	starts := make(map[attemptKey]TaskStart)

	taskName := func(job, stage, task int, copy bool) string {
		name := fmt.Sprintf("J%d.S%d.T%d", job, stage, task)
		if copy {
			name += " copy"
		}
		return name
	}

	for _, ev := range events {
		switch e := ev.(type) {
		case TaskLaunch:
			launches[attemptKey{e.Job, e.Stage, e.Task, e.Copy}] = e
		case TaskStart:
			starts[attemptKey{e.Job, e.Stage, e.Task, e.Copy}] = e
			k := attemptKey{e.Job, e.Stage, e.Task, e.Copy}
			if l, ok := launches[k]; ok && e.T > l.T {
				pid, tid := l.Site+1, e.Job+1
				procs[pid] = fmt.Sprintf("site %d", l.Site)
				threads[procThread{pid, tid}] = fmt.Sprintf("job %d", e.Job)
				out = append(out, traceEvent{
					Name: taskName(e.Job, e.Stage, e.Task, e.Copy),
					Cat:  "fetch", Ph: "X",
					Ts: l.T * us, Dur: (e.T - l.T) * us,
					Pid: pid, Tid: tid,
				})
			}
		case TaskDone:
			k := attemptKey{e.Job, e.Stage, e.Task, e.Copy}
			t0 := -1.0
			if s, ok := starts[k]; ok {
				t0 = s.T
				delete(starts, k)
			} else if l, ok := launches[k]; ok {
				t0 = l.T // no fetch phase: compute spans launch→done
			}
			delete(launches, k)
			if t0 < 0 {
				break
			}
			pid, tid := e.Site+1, e.Job+1
			procs[pid] = fmt.Sprintf("site %d", e.Site)
			threads[procThread{pid, tid}] = fmt.Sprintf("job %d", e.Job)
			out = append(out, traceEvent{
				Name: taskName(e.Job, e.Stage, e.Task, e.Copy),
				Cat:  "compute", Ph: "X",
				Ts: t0 * us, Dur: (e.T - t0) * us,
				Pid: pid, Tid: tid,
			})
		case FlowDone:
			tid := e.Src*1000 + e.Dst
			threads[procThread{pidWAN, tid}] = fmt.Sprintf("s%d→s%d", e.Src, e.Dst)
			out = append(out, traceEvent{
				Name: fmt.Sprintf("flow %d (%.1f MB)", e.Flow, e.Bytes/1e6),
				Cat:  "wan", Ph: "X",
				Ts: (e.T - e.Duration) * us, Dur: e.Duration * us,
				Pid: pidWAN, Tid: tid,
				Args: map[string]string{
					"bytes":    fmt.Sprintf("%.0f", e.Bytes),
					"avg_rate": fmt.Sprintf("%.0f", e.AvgRate),
				},
			})
		case SchedInstance:
			threads[procThread{pidSched, 1}] = "instances"
			out = append(out, traceEvent{
				Name: fmt.Sprintf("instance %d (%d launched)", e.Seq, e.Launched),
				Cat:  "sched", Ph: "i", S: "t",
				Ts: e.T * us, Pid: pidSched, Tid: 1,
			})
		case Placement:
			threads[procThread{pidSched, 2}] = "placements"
			out = append(out, traceEvent{
				Name: fmt.Sprintf("place J%d.S%d est=%.1fs", e.Job, e.Stage, e.Est),
				Cat:  "place", Ph: "i", S: "t",
				Ts: e.T * us, Pid: pidSched, Tid: 2,
				Args: map[string]string{"route": e.Route()},
			})
		case DropEvent:
			threads[procThread{pidSched, 3}] = "drops"
			out = append(out, traceEvent{
				Name: fmt.Sprintf("drop site %d −%.0f%%", e.Site, e.Frac*100),
				Cat:  "drop", Ph: "i", S: "g",
				Ts: e.T * us, Pid: pidSched, Tid: 3,
			})
		case Fault:
			threads[procThread{pidSched, 4}] = "faults"
			out = append(out, traceEvent{
				Name: e.Fault,
				Cat:  "fault", Ph: "i", S: "g",
				Ts: e.T * us, Pid: pidSched, Tid: 4,
			})
		}
	}

	// Metadata records, in sorted order for determinism.
	var meta []traceEvent
	pids := make([]int, 0, len(procs))
	for pid := range procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		meta = append(meta, traceEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]string{"name": procs[pid]},
		})
	}
	pts := make([]procThread, 0, len(threads))
	for pt := range threads {
		pts = append(pts, pt)
	}
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].pid != pts[b].pid {
			return pts[a].pid < pts[b].pid
		}
		return pts[a].tid < pts[b].tid
	})
	for _, pt := range pts {
		meta = append(meta, traceEvent{
			Name: "thread_name", Ph: "M", Pid: pt.pid, Tid: pt.tid,
			Args: map[string]string{"name": threads[pt]},
		})
	}

	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{append(meta, out...), "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
