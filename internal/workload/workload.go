// Package workload models data-analytics jobs as DAGs of stages with
// parallel tasks, and generates the synthetic traces used by the
// evaluation. It substitutes for the paper's inputs — TPC-DS and BigData
// benchmark queries on EC2 (§6.2) and a Microsoft production trace
// (§6.3) — with generators that reproduce the characteristics the paper
// relies on: stage-chain depth (TPC-DS 6–16, BigData 2–5), heavy-tailed
// task counts, non-uniform input distribution across sites (§2.1),
// controllable input/intermediate skew (CV), intermediate-to-input data
// ratios, and task-duration estimation error (Fig. 12).
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// StageKind distinguishes the two communication patterns the paper
// formulates separately (§3.1, §3.2).
type StageKind int

// Stage kinds.
const (
	// MapStage tasks each read one input partition whose site is fixed
	// by data placement (one-to-one).
	MapStage StageKind = iota
	// ReduceStage tasks each read a share of every site's intermediate
	// output (many-to-many shuffle).
	ReduceStage
)

func (k StageKind) String() string {
	switch k {
	case MapStage:
		return "map"
	case ReduceStage:
		return "reduce"
	default:
		return fmt.Sprintf("StageKind(%d)", int(k))
	}
}

// MarshalText encodes the kind as "map" or "reduce", its spelling in
// the job encoding.
func (k StageKind) MarshalText() ([]byte, error) {
	if k != MapStage && k != ReduceStage {
		return nil, fmt.Errorf("workload: cannot encode %v", k)
	}
	return []byte(k.String()), nil
}

// UnmarshalText decodes "map" or "reduce"; any other kind is an error
// that names it.
func (k *StageKind) UnmarshalText(b []byte) error {
	switch string(b) {
	case "map":
		*k = MapStage
	case "reduce":
		*k = ReduceStage
	default:
		return fmt.Errorf("unknown stage kind %q (want \"map\" or \"reduce\")", b)
	}
	return nil
}

// TaskSpec describes one task of a stage.
type TaskSpec struct {
	// Src is the site holding this task's primary input partition; valid
	// only for map-stage tasks (-1 for reduce tasks, whose input is
	// spread over all sites).
	Src int `json:"src"`
	// Replicas lists additional sites holding copies of the partition
	// (§8: "the selection from multiple data replica"). A task placed at
	// any replica site reads locally.
	Replicas []int `json:"replicas,omitempty"`
	// Input is the task's total input bytes.
	Input float64 `json:"input"`
	// Compute is the task's true computation duration in seconds.
	Compute float64 `json:"compute"`
}

// HasReplicaAt reports whether the task's partition is available at the
// site (primary or replica).
func (t TaskSpec) HasReplicaAt(site int) bool {
	if t.Src == site {
		return true
	}
	for _, r := range t.Replicas {
		if r == site {
			return true
		}
	}
	return false
}

// Stage is one stage of a job: a set of parallel tasks with a common
// communication pattern.
type Stage struct {
	Kind StageKind `json:"kind"`
	// Deps lists stage indices within the job that must complete before
	// this stage can start. Map stages have no deps; the common shape is
	// a chain, with joins producing multiple roots.
	Deps []int `json:"deps,omitempty"`
	// OutputRatio is (bytes of output) / (bytes of input) for the whole
	// stage; it determines the intermediate data volume downstream
	// stages shuffle.
	OutputRatio float64 `json:"output_ratio"`
	// EstCompute is the scheduler-visible estimate of the mean task
	// compute duration (§5: estimated from finished tasks of the same
	// stage). It differs from the true mean by the injected estimation
	// error (Fig. 12d).
	EstCompute float64    `json:"est_compute"`
	Tasks      []TaskSpec `json:"tasks"`
}

// NumTasks returns the task count of the stage.
func (s *Stage) NumTasks() int { return len(s.Tasks) }

// TotalInput returns the sum of the stage's task input bytes.
func (s *Stage) TotalInput() float64 {
	total := 0.0
	for _, t := range s.Tasks {
		total += t.Input
	}
	return total
}

// TotalOutput returns the stage's output volume (input × ratio).
func (s *Stage) TotalOutput() float64 { return s.TotalInput() * s.OutputRatio }

// MeanCompute returns the true mean task compute duration.
func (s *Stage) MeanCompute() float64 {
	if len(s.Tasks) == 0 {
		return 0
	}
	total := 0.0
	for _, t := range s.Tasks {
		total += t.Compute
	}
	return total / float64(len(s.Tasks))
}

// InputBySite returns the stage's input bytes per site for a map stage.
// It panics for reduce stages, whose input location is decided at run
// time by upstream placement.
func (s *Stage) InputBySite(nSites int) []float64 {
	if s.Kind != MapStage {
		panic("workload: InputBySite on reduce stage")
	}
	out := make([]float64, nSites)
	for _, t := range s.Tasks {
		out[t.Src] += t.Input
	}
	return out
}

// Job is a DAG of stages with an arrival time. Tenant identifies the
// submitting tenant for per-tenant accounting (fleet analytics); empty
// means the default tenant.
//
// The json tags of Job, Stage and TaskSpec are the one JSON encoding of
// a job: trace files, the journal's admit records and (without id and
// arrival) the POST /v1/jobs body all read and write it.
type Job struct {
	ID      int      `json:"id"`
	Name    string   `json:"name"`
	Tenant  string   `json:"tenant,omitempty"`
	Arrival float64  `json:"arrival"` // seconds
	Stages  []*Stage `json:"stages"`
}

// NumStages returns the number of stages in the job.
func (j *Job) NumStages() int { return len(j.Stages) }

// TotalTasks returns the total number of tasks across stages.
func (j *Job) TotalTasks() int {
	n := 0
	for _, s := range j.Stages {
		n += len(s.Tasks)
	}
	return n
}

// TotalInput returns the job's raw input bytes (sum over map stages).
func (j *Job) TotalInput() float64 {
	total := 0.0
	for _, s := range j.Stages {
		if s.Kind == MapStage {
			total += s.TotalInput()
		}
	}
	return total
}

// IntermediateInputRatio is the job's total shuffled (reduce-stage input)
// bytes divided by its raw input bytes — the x-axis of Fig. 12a.
func (j *Job) IntermediateInputRatio() float64 {
	in := j.TotalInput()
	if in == 0 {
		return 0
	}
	inter := 0.0
	for _, s := range j.Stages {
		if s.Kind == ReduceStage {
			inter += s.TotalInput()
		}
	}
	return inter / in
}

// InputSkewCV returns the coefficient of variation of the job's raw
// input bytes across sites — the x-axis of Fig. 12b.
func (j *Job) InputSkewCV(nSites int) float64 {
	per := make([]float64, nSites)
	for _, s := range j.Stages {
		if s.Kind != MapStage {
			continue
		}
		for _, t := range s.Tasks {
			per[t.Src] += t.Input
		}
	}
	return CV(per)
}

// EstimationError returns the mean relative task-duration estimation
// error across stages — the x-axis of Fig. 12d.
func (j *Job) EstimationError() float64 {
	if len(j.Stages) == 0 {
		return 0
	}
	total := 0.0
	for _, s := range j.Stages {
		mean := s.MeanCompute()
		if mean == 0 {
			continue
		}
		total += math.Abs(s.EstCompute-mean) / mean
	}
	return total / float64(len(j.Stages))
}

// Validate checks structural invariants: dep indices in range and
// acyclic (deps point only to earlier stages), map roots, positive task
// counts; and that what the placement LPs and the accounting multiply
// and sum is usable: no negative scalar, no total that is not a finite
// number.
func (j *Job) Validate() error {
	if len(j.Stages) == 0 {
		return fmt.Errorf("job %d: no stages", j.ID)
	}
	var input, output, compute float64 // job-wide totals
	for i, s := range j.Stages {
		if s == nil {
			return fmt.Errorf("job %d stage %d: null stage", j.ID, i)
		}
		if len(s.Tasks) == 0 {
			return fmt.Errorf("job %d stage %d: no tasks", j.ID, i)
		}
		for _, d := range s.Deps {
			if d < 0 || d >= i {
				return fmt.Errorf("job %d stage %d: dep %d out of range (must be < %d)", j.ID, i, d, i)
			}
		}
		if s.Kind == MapStage && len(s.Deps) > 0 {
			return fmt.Errorf("job %d stage %d: map stage with deps", j.ID, i)
		}
		if s.Kind == ReduceStage && len(s.Deps) == 0 {
			return fmt.Errorf("job %d stage %d: reduce stage without deps", j.ID, i)
		}
		// Written so that a NaN fails too.
		if !(s.OutputRatio >= 0) || !(s.EstCompute >= 0) {
			return fmt.Errorf("job %d stage %d: negative output ratio or compute estimate", j.ID, i)
		}
		var stageInput float64
		for ti, task := range s.Tasks {
			if s.Kind == MapStage && task.Src < 0 {
				return fmt.Errorf("job %d stage %d task %d: map task without source site", j.ID, i, ti)
			}
			if !(task.Input >= 0) || !(task.Compute >= 0) {
				return fmt.Errorf("job %d stage %d task %d: negative input or compute", j.ID, i, ti)
			}
			stageInput += task.Input
			compute += task.Compute
			for _, r := range task.Replicas {
				if r < 0 {
					return fmt.Errorf("job %d stage %d task %d: negative replica site", j.ID, i, ti)
				}
				if r == task.Src {
					return fmt.Errorf("job %d stage %d task %d: replica duplicates primary site", j.ID, i, ti)
				}
			}
		}
		input += stageInput
		output += stageInput * s.OutputRatio
	}
	// Every term was non-negative, so a finite job total bounds each
	// stage's; the comparison fails for +Inf (overflow) and NaN (0 × Inf).
	for _, total := range []float64{input, output, compute} {
		if !(total <= math.MaxFloat64) {
			return fmt.Errorf("job %d: input, output or compute total is not finite", j.ID)
		}
	}
	return nil
}

// CheckSites checks that every site the job's map tasks read from — a
// primary or a replica — exists on a cluster of n sites. Validate has
// already refused negative sites.
func (j *Job) CheckSites(n int) error {
	for si, s := range j.Stages {
		if s.Kind != MapStage {
			continue
		}
		for ti, t := range s.Tasks {
			if t.Src >= n {
				return fmt.Errorf("job %d stage %d task %d: site %d beyond cluster (%d sites)", j.ID, si, ti, t.Src, n)
			}
			for _, r := range t.Replicas {
				if r >= n {
					return fmt.Errorf("job %d stage %d task %d: replica site %d beyond cluster (%d sites)", j.ID, si, ti, r, n)
				}
			}
		}
	}
	return nil
}

// CV returns the coefficient of variation (stddev/mean) of v, or 0 for
// an empty or zero-mean vector.
func CV(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	mean := 0.0
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	if mean == 0 {
		return 0
	}
	ss := 0.0
	for _, x := range v {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(v))) / mean
}

// skewedWeights draws n positive weights summing to 1 whose coefficient
// of variation is approximately targetCV, using a lognormal draw
// (sigma² = ln(1+CV²)).
func skewedWeights(rng *rand.Rand, n int, targetCV float64) []float64 {
	w := make([]float64, n)
	if targetCV <= 0 {
		for i := range w {
			w[i] = 1 / float64(n)
		}
		return w
	}
	sigma := math.Sqrt(math.Log(1 + targetCV*targetCV))
	sum := 0.0
	for i := range w {
		w[i] = math.Exp(sigma * rng.NormFloat64())
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// logUniformInt draws an integer log-uniformly from [lo, hi].
func logUniformInt(rng *rand.Rand, lo, hi int) int {
	if lo >= hi {
		return lo
	}
	l, h := math.Log(float64(lo)), math.Log(float64(hi))
	v := int(math.Round(math.Exp(l + rng.Float64()*(h-l))))
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}
