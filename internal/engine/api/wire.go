// Package api exposes the scheduling service — one engine or a
// federation of engine shards, behind the Service interface — over
// HTTP/JSON: job submission and status, live cluster state, §4.2
// dynamics updates, Prometheus metrics, and the JSONL debug event
// stream.
//
// Routes (see Handler):
//
//	POST /v1/jobs            submit a job (202, body: job status)
//	GET  /v1/jobs            list all jobs
//	GET  /v1/jobs/{id}       one job with per-stage detail
//	GET  /v1/cluster         live per-site capacity view
//	POST /v1/cluster/update  apply slot/bandwidth changes (§4.2)
//	GET  /metrics            Prometheus text exposition format
//	GET  /metrics.txt        the repo's native registry dump
//	GET  /debug/events       retained events as JSONL (?since=<cursor>)
//	GET  /healthz            liveness probe
//	GET  /readyz             readiness probe
//
// plus whatever the backend mounts itself (Service.Mount): an engine
// with a fleet-analytics store serves /v1/analytics/, a federation
// GET /v1/federation.
package api

import (
	"time"

	"tetrium/internal/engine"
	"tetrium/internal/workload"
)

// JobSpec is the submission body: the header of internal/workload's
// job encoding — the one trace files and the journal hold — without the
// id and arrival the engine assigns. A trace's job posts as is, one job
// per request.
type JobSpec struct {
	Name string `json:"name"`
	// Tenant attributes the job for fleet analytics; empty means
	// "default".
	Tenant string           `json:"tenant,omitempty"`
	Stages []workload.Stage `json:"stages"`
}

// ToWorkload makes the engine's job of the wire job, applying the two
// rules the wire adds: a reduce task's src is -1 whatever the body said,
// and an omitted est_compute is the mean task compute (§5's estimate,
// rather than a compute-free stage for the placement LPs). The job's
// stages point into j.Stages; nothing is copied. The error is always
// nil: the signature is part of the surface the service benchmark pins.
func (j *JobSpec) ToWorkload() (*workload.Job, error) {
	job := &workload.Job{Name: j.Name, Tenant: j.Tenant, Stages: make([]*workload.Stage, len(j.Stages))}
	for si := range j.Stages {
		st := &j.Stages[si]
		if st.Kind == workload.ReduceStage {
			for ti := range st.Tasks {
				st.Tasks[ti].Src = -1
			}
		}
		if st.EstCompute == 0 {
			st.EstCompute = st.MeanCompute()
		}
		job.Stages[si] = st
	}
	return job, nil
}

// FromWorkload makes the wire form of a model job — how the smoke, the
// tests and the service benchmark replay generated traces over HTTP.
// The spec shares each stage's deps and tasks with j.
func FromWorkload(j *workload.Job) *JobSpec {
	spec := &JobSpec{Name: j.Name, Tenant: j.Tenant, Stages: make([]workload.Stage, len(j.Stages))}
	for si, st := range j.Stages {
		spec.Stages[si] = *st
	}
	return spec
}

// StageStatus is one stage's view in a detailed JobStatus response.
type StageStatus struct {
	Index       int     `json:"index"`
	Kind        string  `json:"kind"`
	Phase       string  `json:"phase"`
	EstSeconds  float64 `json:"est_seconds,omitempty"`
	TasksBySite []int   `json:"tasks_by_site,omitempty"`
	SlotsHeld   []int   `json:"slots_held,omitempty"`
}

// JobStatus is the job view returned by submission, list, and get.
type JobStatus struct {
	ID              int           `json:"id"`
	Name            string        `json:"name"`
	Tenant          string        `json:"tenant,omitempty"`
	State           string        `json:"state"` // pending | running | done
	StagesDone      int           `json:"stages_done"`
	NumStages       int           `json:"num_stages"`
	SubmittedUnixMs int64         `json:"submitted_unix_ms"`
	PlacedUnixMs    int64         `json:"placed_unix_ms,omitempty"`
	FinishedUnixMs  int64         `json:"finished_unix_ms,omitempty"`
	SubmitToPlaceMs float64       `json:"submit_to_place_ms,omitempty"`
	ResponseSeconds float64       `json:"response_s,omitempty"`
	WANBytes        float64       `json:"wan_bytes"`
	Stages          []StageStatus `json:"stages,omitempty"`
}

// WireJob converts an engine job snapshot to its wire form. Exported
// for the service benchmark, which times the encode on its own.
func WireJob(st engine.JobStatus) JobStatus { return jobStatus(st) }

func jobStatus(st engine.JobStatus) JobStatus {
	out := JobStatus{
		ID:              st.ID,
		Name:            st.Name,
		Tenant:          st.Tenant,
		State:           st.Phase.String(),
		StagesDone:      st.StagesDone,
		NumStages:       st.NumStages,
		SubmittedUnixMs: st.Submitted.UnixMilli(),
		WANBytes:        st.WANBytes,
	}
	if !st.Placed.IsZero() {
		out.PlacedUnixMs = st.Placed.UnixMilli()
		out.SubmitToPlaceMs = float64(st.Placed.Sub(st.Submitted)) / float64(time.Millisecond)
	}
	if !st.Finished.IsZero() {
		out.FinishedUnixMs = st.Finished.UnixMilli()
		out.ResponseSeconds = st.Finished.Sub(st.Submitted).Seconds()
	}
	for _, ss := range st.Stages {
		out.Stages = append(out.Stages, StageStatus{
			Index:       ss.Index,
			Kind:        ss.Kind,
			Phase:       ss.Phase,
			EstSeconds:  ss.EstSeconds,
			TasksBySite: ss.TasksBySite,
			SlotsHeld:   ss.SlotsHeld,
		})
	}
	return out
}

// SiteStatus is one site's view in the cluster response.
type SiteStatus struct {
	Site      int     `json:"site"`
	Name      string  `json:"name"`
	Slots     int     `json:"slots"`
	OrigSlots int     `json:"orig_slots"`
	FreeSlots int     `json:"free_slots"`
	UpBW      float64 `json:"up_bw"`
	DownBW    float64 `json:"down_bw"`
}

// ClusterStatus is the GET /v1/cluster response.
type ClusterStatus struct {
	Sites      []SiteStatus `json:"sites"`
	ActiveJobs int          `json:"active_jobs"`
	MaxPending int          `json:"max_pending"`
	Draining   bool         `json:"draining"`
}

func clusterStatus(cs engine.ClusterStatus) ClusterStatus {
	out := ClusterStatus{
		ActiveJobs: cs.ActiveJobs,
		MaxPending: cs.MaxPending,
		Draining:   cs.Draining,
	}
	for _, s := range cs.Sites {
		out.Sites = append(out.Sites, SiteStatus{
			Site: s.Site, Name: s.Name,
			Slots: s.Slots, OrigSlots: s.OrigSlots, FreeSlots: s.FreeSlots,
			UpBW: s.UpBW, DownBW: s.DownBW,
		})
	}
	return out
}

// SiteUpdate is one entry of the cluster-update request. Omitted fields
// keep current settings; frac > 0 drops that fraction of the site's
// original capacity and overrides the absolute fields (§4.2).
type SiteUpdate struct {
	Site   int      `json:"site"`
	Slots  *int     `json:"slots,omitempty"`
	UpBW   *float64 `json:"up_bw,omitempty"`
	DownBW *float64 `json:"down_bw,omitempty"`
	Frac   float64  `json:"frac,omitempty"`
}

// UpdateRequest is the POST /v1/cluster/update body.
type UpdateRequest struct {
	Sites []SiteUpdate `json:"sites"`
}

// UpdateResponse reports how many live stage placements were re-solved.
type UpdateResponse struct {
	StagesReplaced int `json:"stages_replaced"`
}

func (u SiteUpdate) toEngine() engine.SiteUpdate {
	out := engine.SiteUpdate{Site: u.Site, Slots: -1, Frac: u.Frac}
	if u.Slots != nil {
		out.Slots = *u.Slots
	}
	if u.UpBW != nil {
		out.UpBW = *u.UpBW
	}
	if u.DownBW != nil {
		out.DownBW = *u.DownBW
	}
	return out
}

// errorBody is every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}
