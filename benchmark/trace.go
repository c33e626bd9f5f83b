package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share ID (the job's name); Parent names the span that caused it.
// Times are microseconds from the start of the traced pass.
type span struct {
	ID      string  `json:"id"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	// Derived marks a span whose duration was measured but whose
	// position was inferred (lp.solve: the engine reports SolveNanos,
	// not when the solve began; it is drawn ending at the placement).
	Derived bool `json:"derived,omitempty"`
}

func (s span) dur() float64 { return s.EndUs - s.StartUs }

// selfTimes returns, for every span, its duration minus the part of
// its interval that its direct children cover (children may overlap
// each other and may stick out of the parent; only covered time inside
// the parent counts). Children are the spans with the same ID whose
// Parent is the span's Name. The result is indexed like spans.
func selfTimes(spans []span) []float64 {
	type key struct{ id, name string }
	children := make(map[key][]int)
	for i, s := range spans {
		if s.Parent != "" {
			k := key{s.ID, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[key{s.ID, s.Name}]
		type iv struct{ a, b float64 }
		var ivs []iv
		for _, k := range kids {
			a, b := spans[k].StartUs, spans[k].EndUs
			if a < s.StartUs {
				a = s.StartUs
			}
			if b > s.EndUs {
				b = s.EndUs
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, end := 0.0, s.StartUs
		for _, v := range ivs {
			if v.b <= end {
				continue
			}
			if v.a > end {
				end = v.a
			}
			covered += v.b - end
			end = v.b
		}
		out[i] = s.dur() - covered
	}
	return out
}

// medianSelfByName groups self times by span name and returns each
// group's median, in microseconds.
func medianSelfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	groups := make(map[string][]float64)
	for i, s := range spans {
		groups[s.Name] = append(groups[s.Name], self[i])
	}
	out := make(map[string]float64, len(groups))
	for name, v := range groups {
		out[name] = median(v)
	}
	return out
}

func usSince(t0, t time.Time) float64 { return float64(t.Sub(t0)) / float64(time.Microsecond) }

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
