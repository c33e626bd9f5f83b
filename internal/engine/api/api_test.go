package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tetrium/internal/cluster"
	"tetrium/internal/engine"
	"tetrium/internal/journal"
	"tetrium/internal/place"
	"tetrium/internal/sched"
	"tetrium/internal/workload"
)

func testServer(t *testing.T, mut func(*engine.Config)) (*httptest.Server, *engine.Engine) {
	t.Helper()
	cfg := engine.Config{
		Cluster: cluster.PaperExample(),
		Placer:  place.Tetrium{},
		Policy:  sched.SRPT,
		Rho:     1, Eps: 1,
	}
	if mut != nil {
		mut(&cfg)
	}
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	srv := httptest.NewServer(Handler(EngineService(e)))
	t.Cleanup(func() { srv.Close(); e.Close() })
	return srv, e
}

func submitBody(t *testing.T) []byte {
	t.Helper()
	jobs := workload.Generate(workload.BigData(3, 1, 5))
	body, err := json.Marshal(FromWorkload(jobs[0]))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return body
}

func postJob(t *testing.T, srv *httptest.Server, body []byte) (*http.Response, JobStatus) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	resp.Body.Close()
	return resp, st
}

// pollJobState polls one job until it reaches want (placement solves
// run off the event loop, so even TimeScale-0 completion is async).
func pollJobState(t *testing.T, srv *httptest.Server, id int, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		get, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", srv.URL, id))
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		var detail JobStatus
		derr := json.NewDecoder(get.Body).Decode(&detail)
		get.Body.Close()
		if derr != nil {
			t.Fatalf("decode: %v", derr)
		}
		if detail.State == want {
			return detail
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d state %q, want %q", id, detail.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitAndGet(t *testing.T) {
	srv, _ := testServer(t, nil)
	resp, st := postJob(t, srv, submitBody(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}

	detail := pollJobState(t, srv, st.ID, "done")
	if len(detail.Stages) == 0 {
		t.Errorf("detail response missing stages")
	}
	if detail.SubmitToPlaceMs <= 0 {
		t.Errorf("submit_to_place_ms = %v, want > 0", detail.SubmitToPlaceMs)
	}

	list, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET jobs: %v", err)
	}
	defer list.Body.Close()
	var all []JobStatus
	if err := json.NewDecoder(list.Body).Decode(&all); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	if len(all) != 1 || all[0].ID != st.ID {
		t.Errorf("list = %+v, want the one submitted job", all)
	}
}

func TestSubmitErrors(t *testing.T) {
	srv, _ := testServer(t, nil)
	for name, body := range map[string]string{
		"bad json":   "{not json",
		"no stages":  `{"name":"x","stages":[]}`,
		"bad kind":   `{"name":"x","stages":[{"kind":"mystery","tasks":[{"src":0,"input":1,"compute":1}]}]}`,
		"bad source": `{"name":"x","stages":[{"kind":"map","tasks":[{"src":77,"input":1,"compute":1}]}]}`,
	} {
		resp, _ := postJob(t, srv, []byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/999")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}
}

func TestClusterViewAndUpdate(t *testing.T) {
	srv, _ := testServer(t, nil)

	resp, err := http.Get(srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatalf("GET cluster: %v", err)
	}
	var cs ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if len(cs.Sites) != 3 {
		t.Fatalf("sites = %d, want 3", len(cs.Sites))
	}

	up, err := http.Post(srv.URL+"/v1/cluster/update", "application/json",
		strings.NewReader(`{"sites":[{"site":0,"frac":0.5}]}`))
	if err != nil {
		t.Fatalf("POST update: %v", err)
	}
	up.Body.Close()
	if up.StatusCode != http.StatusOK {
		t.Fatalf("update status %d, want 200", up.StatusCode)
	}

	resp2, err := http.Get(srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatalf("GET cluster: %v", err)
	}
	var cs2 ClusterStatus
	if err := json.NewDecoder(resp2.Body).Decode(&cs2); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp2.Body.Close()
	if cs2.Sites[0].Slots >= cs.Sites[0].Slots {
		t.Errorf("site 0 slots %d not reduced from %d", cs2.Sites[0].Slots, cs.Sites[0].Slots)
	}

	bad, err := http.Post(srv.URL+"/v1/cluster/update", "application/json",
		strings.NewReader(`{"sites":[{"site":42,"frac":0.5}]}`))
	if err != nil {
		t.Fatalf("POST bad update: %v", err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad update status %d, want 400", bad.StatusCode)
	}
}

func TestMetricsAndEvents(t *testing.T) {
	srv, _ := testServer(t, nil)
	_, st := postJob(t, srv, submitBody(t))
	pollJobState(t, srv, st.ID, "done")

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "tetrium_jobs_done 1") {
		t.Errorf("/metrics missing tetrium_jobs_done 1:\n%s", buf.String())
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content type %q", ct)
	}

	txt, err := http.Get(srv.URL + "/metrics.txt")
	if err != nil {
		t.Fatalf("GET metrics.txt: %v", err)
	}
	buf.Reset()
	buf.ReadFrom(txt.Body)
	txt.Body.Close()
	if !strings.Contains(buf.String(), "jobs.done") {
		t.Errorf("/metrics.txt missing jobs.done:\n%s", buf.String())
	}

	ev, err := http.Get(srv.URL + "/debug/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	buf.Reset()
	buf.ReadFrom(ev.Body)
	ev.Body.Close()
	if ev.Header.Get("Tetrium-Events-Missed") != "0" {
		t.Errorf("missed header = %q, want 0", ev.Header.Get("Tetrium-Events-Missed"))
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("events: %d lines, want several", len(lines))
	}
	for _, ln := range lines {
		var rec struct {
			K string          `json:"k"`
			E json.RawMessage `json:"e"`
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", ln, err)
		}
		if rec.K == "" {
			t.Errorf("event line missing kind: %q", ln)
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	jobs := workload.Generate(workload.TPCDS(3, 2, 9))
	for _, j := range jobs {
		spec := FromWorkload(j)
		back, err := spec.ToWorkload()
		if err != nil {
			t.Fatalf("ToWorkload: %v", err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped job invalid: %v", err)
		}
		if back.NumStages() != j.NumStages() || back.TotalTasks() != j.TotalTasks() {
			t.Errorf("round trip changed shape: %d/%d stages, %d/%d tasks",
				back.NumStages(), j.NumStages(), back.TotalTasks(), j.TotalTasks())
		}
	}
}

func TestWireEstComputeDefault(t *testing.T) {
	spec := &JobSpec{Name: "hand-written", Stages: []StageSpec{
		{Kind: "map", Tasks: []TaskSpec{
			{Src: 0, Input: 1e9, Compute: 4},
			{Src: 1, Input: 1e9, Compute: 8},
		}},
		{Kind: "reduce", Deps: []int{0}, EstCompute: 2, Tasks: []TaskSpec{{Compute: 6}}},
	}}
	job, err := spec.ToWorkload()
	if err != nil {
		t.Fatalf("ToWorkload: %v", err)
	}
	if got := job.Stages[0].EstCompute; got != 6 {
		t.Errorf("omitted est_compute = %v, want mean task compute 6", got)
	}
	if got := job.Stages[1].EstCompute; got != 2 {
		t.Errorf("explicit est_compute overridden: got %v, want 2", got)
	}
}

func TestReadyz(t *testing.T) {
	srv, e := testServer(t, func(cfg *engine.Config) {
		cfg.TimeScale = 1000 // park submitted jobs so draining never ends
	})
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz %d, want 200", resp.StatusCode)
	}

	// Draining: liveness stays green, readiness flips with a reason.
	if resp, _ := postJob(t, srv, submitBody(t)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	e.Drain(ctx) // times out, but admission is now closed

	resp2, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET readyz draining: %v", err)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&eb); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable || eb.Error != "draining" {
		t.Errorf("readyz draining = %d/%q, want 503/draining", resp2.StatusCode, eb.Error)
	}
	h, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining = %d, want 200 (still live)", h.StatusCode)
	}

	e.Close()
	resp3, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET readyz stopped: %v", err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after close = %d, want 503", resp3.StatusCode)
	}
}

func TestRetryAfterComputed(t *testing.T) {
	srv, _ := testServer(t, func(cfg *engine.Config) {
		cfg.MaxPending = 1
		cfg.TimeScale = 1000 // first job parks, queue stays full
	})
	body := submitBody(t)
	if resp, _ := postJob(t, srv, body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	resp, _ := postJob(t, srv, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit: status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q not an integer: %v", ra, err)
	}
	if secs < 1 || secs > 60 {
		t.Errorf("Retry-After = %d, want within [1,60]", secs)
	}
}

// PanicPlacer panics inside PlaceMap while armed — a stand-in for any
// bug that blows up a request's closure on the event loop. Exported to
// the package's external tests.
type PanicPlacer struct {
	place.Placer
	Armed atomic.Bool
}

func (p *PanicPlacer) PlaceMap(res place.Resources, req place.MapRequest) (place.MapPlacement, error) {
	if p.Armed.Load() {
		panic("placer bug")
	}
	return p.Placer.PlaceMap(res, req)
}

// TestPanickedRequestIs503: a request whose loop closure is aborted by
// a contained panic did nothing wrong and may be retried, so it answers
// 503 like the federation router does, not the validation 400 — and the
// engine keeps serving afterwards, an InjectPanic later included.
func TestPanickedRequestIs503(t *testing.T) {
	pp := &PanicPlacer{Placer: place.Tetrium{}}
	srv, e := testServer(t, func(cfg *engine.Config) {
		cfg.Placer = pp
		cfg.TimeScale = 1e6 // the stage stays live for the update to re-place
		cfg.PlaceCacheSize = -1
	})
	resp, st := postJob(t, srv, submitBody(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	pollJobState(t, srv, st.ID, "running")

	// The §4.2 restamp solves inline, inside the update's own closure.
	pp.Armed.Store(true)
	up, err := http.Post(srv.URL+"/v1/cluster/update", "application/json",
		strings.NewReader(`{"sites":[{"site":0,"frac":0.5}]}`))
	if err != nil {
		t.Fatalf("POST update: %v", err)
	}
	up.Body.Close()
	if up.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("update aborted by a contained panic: status %d, want 503", up.StatusCode)
	}
	pp.Armed.Store(false)

	e.InjectPanic("chaos")
	deadline := time.Now().Add(10 * time.Second)
	for e.PanicsRecovered() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("PanicsRecovered = %d, want 2", e.PanicsRecovered())
		}
		time.Sleep(time.Millisecond)
	}
	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("healthz after contained panics: %d, want 200", hz.StatusCode)
	}
}

// TestIdempotencyKeySurvivesRestart: the single-engine handler honours
// Idempotency-Key like the federation's — first POST 202, replay 200
// with Tetrium-Idempotent-Replay and the same ID — and the key still
// dedups after the engine is killed and reopened from its journal.
func TestIdempotencyKeySurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eng.journal")
	open := func() (*httptest.Server, *engine.Engine) {
		j, st, err := journal.Open(path, 1024)
		if err != nil {
			t.Fatalf("journal.Open: %v", err)
		}
		return testServer(t, func(cfg *engine.Config) {
			cfg.Journal, cfg.Restore = j, st
			cfg.TimeScale = 1e6 // the job is still live when the engine dies
		})
	}
	post := func(srv *httptest.Server, key string) (*http.Response, JobStatus) {
		req, err := http.NewRequest("POST", srv.URL+"/v1/jobs", bytes.NewReader(submitBody(t)))
		if err != nil {
			t.Fatalf("NewRequest: %v", err)
		}
		req.Header.Set("Idempotency-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST /v1/jobs: %v", err)
		}
		defer resp.Body.Close()
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return resp, st
	}
	wantReplay := func(when string, resp *http.Response, got, want JobStatus) {
		t.Helper()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Tetrium-Idempotent-Replay") != "true" {
			t.Errorf("%s: status %d replay header %q, want 200 + true",
				when, resp.StatusCode, resp.Header.Get("Tetrium-Idempotent-Replay"))
		}
		if got.ID != want.ID {
			t.Errorf("%s: replay returned job %d, want %d", when, got.ID, want.ID)
		}
	}

	srv, e := open()
	first, st1 := post(srv, "key-1")
	if first.StatusCode != http.StatusAccepted || first.Header.Get("Tetrium-Idempotent-Replay") != "" {
		t.Fatalf("first submit: status %d replay header %q, want 202 and none",
			first.StatusCode, first.Header.Get("Tetrium-Idempotent-Replay"))
	}
	again, st2 := post(srv, "key-1")
	wantReplay("live replay", again, st2, st1)
	e.Kill() // no final snapshot: the key must come back from the journal tail

	srv2, e2 := open()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ok, _ := e2.Ready(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reopened engine never became ready")
		}
		time.Sleep(time.Millisecond)
	}
	after, st3 := post(srv2, "key-1")
	wantReplay("replay after restart", after, st3, st1)
	if fresh, st4 := post(srv2, "key-2"); fresh.StatusCode != http.StatusAccepted || st4.ID == st1.ID {
		t.Errorf("fresh key after restart: status %d id %d, want 202 and a new id", fresh.StatusCode, st4.ID)
	}
}
