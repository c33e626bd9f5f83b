package api_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tetrium"
	"tetrium/internal/cluster"
	"tetrium/internal/engine"
	"tetrium/internal/engine/api"
	"tetrium/internal/federation"
	"tetrium/internal/obs"
	"tetrium/internal/place"
	"tetrium/internal/sched"
	"tetrium/internal/workload"
)

// backends are the two implementations of api.Service; every test in
// this file runs the same requests against both.
var backends = []struct {
	name   string
	shards int
	start  func(t *testing.T, mut func(*engine.Config)) api.Service
}{
	{"engine", 1, func(t *testing.T, mut func(*engine.Config)) api.Service {
		cfg := baseConfig(mut)
		cfg.Cluster = cluster.EC2EightRegions()
		e, err := engine.New(cfg)
		if err != nil {
			t.Fatalf("engine.New: %v", err)
		}
		return api.EngineService(e)
	}},
	{"federation", 2, func(t *testing.T, mut func(*engine.Config)) api.Service {
		f, err := federation.New(federation.Config{
			Shards:  2,
			Cluster: cluster.EC2EightRegions(),
			Member:  func(int) (engine.Config, error) { return baseConfig(mut), nil },
		})
		if err != nil {
			t.Fatalf("federation.New: %v", err)
		}
		return f
	}},
}

func baseConfig(mut func(*engine.Config)) engine.Config {
	cfg := engine.Config{Placer: place.Tetrium{}, Policy: sched.SRPT, Rho: 1, Eps: 1}
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

func serveBackend(t *testing.T, svc api.Service) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(api.Handler(svc))
	t.Cleanup(func() { srv.Close(); svc.Close() })
	return srv
}

func jobBody(t *testing.T, name string) []byte {
	t.Helper()
	job := workload.Generate(workload.BigData(8, 1, 5))[0]
	job.Name = name
	body, err := json.Marshal(api.FromWorkload(job))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return body
}

// do sends one request and returns the response with its body read.
func do(t *testing.T, method, url, idemKey string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read body: %v", method, url, err)
	}
	return resp, out
}

func wantStatus(t *testing.T, what string, resp *http.Response, want int) {
	t.Helper()
	if resp.StatusCode != want {
		t.Errorf("%s: status %d, want %d", what, resp.StatusCode, want)
	}
}

func decodeJob(t *testing.T, body []byte) api.JobStatus {
	t.Helper()
	var st api.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decode job %q: %v", body, err)
	}
	return st
}

func pollState(t *testing.T, base string, id int, want string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body := do(t, "GET", fmt.Sprintf("%s/v1/jobs/%d", base, id), "", nil)
		wantStatus(t, "get job", resp, http.StatusOK)
		if st := decodeJob(t, body); st.State == want {
			return st
		} else if time.Now().After(deadline) {
			t.Fatalf("job %d state %q, want %q", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func eventLines(t *testing.T, body []byte) int {
	t.Helper()
	n := 0
	for _, ln := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if ln == "" {
			continue
		}
		var rec struct {
			K string `json:"k"`
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil || rec.K == "" {
			t.Fatalf("bad JSONL line %q: %v", ln, err)
		}
		n++
	}
	return n
}

// TestServiceContract is the one HTTP contract, asserted on both
// backends: the routes, status codes, headers and bodies a client may
// rely on whichever Service the handler fronts.
func TestServiceContract(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			svc := b.start(t, nil)
			base := serveBackend(t, svc).URL

			resp, body := do(t, "GET", base+"/healthz", "", nil)
			wantStatus(t, "healthz", resp, http.StatusOK)
			if string(body) != "ok\n" {
				t.Errorf("healthz body %q, want ok", body)
			}
			resp, body = do(t, "GET", base+"/readyz", "", nil)
			wantStatus(t, "readyz", resp, http.StatusOK)
			if string(body) != "ready\n" {
				t.Errorf("readyz body %q, want ready", body)
			}

			// Submit, then replay the same Idempotency-Key.
			resp, body = do(t, "POST", base+"/v1/jobs", "key-1", jobBody(t, "contract"))
			wantStatus(t, "submit", resp, http.StatusAccepted)
			if resp.Header.Get("Tetrium-Idempotent-Replay") != "" {
				t.Errorf("first submit carries the replay header")
			}
			st := decodeJob(t, body)
			resp, body = do(t, "POST", base+"/v1/jobs", "key-1", jobBody(t, "contract"))
			wantStatus(t, "idempotent replay", resp, http.StatusOK)
			if resp.Header.Get("Tetrium-Idempotent-Replay") != "true" || decodeJob(t, body).ID != st.ID {
				t.Errorf("replay: header %q id %d, want true and %d",
					resp.Header.Get("Tetrium-Idempotent-Replay"), decodeJob(t, body).ID, st.ID)
			}

			// Get (with per-stage detail) and list.
			detail := pollState(t, base, st.ID, "done")
			if len(detail.Stages) == 0 || detail.SubmitToPlaceMs <= 0 {
				t.Errorf("detail: %d stages, submit_to_place_ms %v", len(detail.Stages), detail.SubmitToPlaceMs)
			}
			resp, body = do(t, "GET", base+"/v1/jobs", "", nil)
			wantStatus(t, "list", resp, http.StatusOK)
			var all []api.JobStatus
			if err := json.Unmarshal(body, &all); err != nil || len(all) != 1 || all[0].ID != st.ID {
				t.Errorf("list = %s (%v), want the one submitted job", body, err)
			}

			// Cluster view and a §4.2 update.
			resp, body = do(t, "GET", base+"/v1/cluster", "", nil)
			wantStatus(t, "cluster", resp, http.StatusOK)
			var before, after api.ClusterStatus
			if err := json.Unmarshal(body, &before); err != nil || len(before.Sites) != 8 {
				t.Fatalf("cluster = %s (%v), want 8 sites", body, err)
			}
			resp, body = do(t, "POST", base+"/v1/cluster/update", "", []byte(`{"sites":[{"site":0,"frac":0.5}]}`))
			wantStatus(t, "update", resp, http.StatusOK)
			if !strings.Contains(string(body), `"stages_replaced":`) {
				t.Errorf("update body %s", body)
			}
			_, body = do(t, "GET", base+"/v1/cluster", "", nil)
			if err := json.Unmarshal(body, &after); err != nil || after.Sites[0].Slots >= before.Sites[0].Slots {
				t.Errorf("site 0 slots %d not reduced from %d (%v)", after.Sites[0].Slots, before.Sites[0].Slots, err)
			}

			// The caller's mistakes: 400, 404, 413.
			for what, bad := range map[string]string{
				"bad json":   "{not json",
				"no stages":  `{"name":"x","stages":[]}`,
				"bad kind":   `{"name":"x","stages":[{"kind":"mystery","tasks":[{"src":0,"input":1,"compute":1}]}]}`,
				"bad source": `{"name":"x","stages":[{"kind":"map","tasks":[{"src":77,"input":1,"compute":1}]}]}`,
			} {
				resp, _ = do(t, "POST", base+"/v1/jobs", "", []byte(bad))
				wantStatus(t, what, resp, http.StatusBadRequest)
			}
			resp, _ = do(t, "POST", base+"/v1/cluster/update", "", []byte("{not json"))
			wantStatus(t, "bad update json", resp, http.StatusBadRequest)
			resp, _ = do(t, "POST", base+"/v1/cluster/update", "", []byte(`{"sites":[{"site":42,"frac":0.5}]}`))
			wantStatus(t, "update of unknown site", resp, http.StatusBadRequest)
			resp, _ = do(t, "GET", base+"/v1/jobs/999", "", nil)
			wantStatus(t, "unknown id", resp, http.StatusNotFound)
			resp, _ = do(t, "GET", base+"/v1/jobs/abc", "", nil)
			wantStatus(t, "non-numeric id", resp, http.StatusBadRequest)
			huge := []byte(`{"name":"` + strings.Repeat("a", api.MaxBodyBytes) + `","stages":[]}`)
			for _, route := range []string{"/v1/jobs", "/v1/cluster/update"} {
				resp, _ = do(t, "POST", base+route, "", huge)
				wantStatus(t, "over-limit body on "+route, resp, http.StatusRequestEntityTooLarge)
			}

			// Metrics in both formats.
			resp, body = do(t, "GET", base+"/metrics", "", nil)
			wantStatus(t, "metrics", resp, http.StatusOK)
			if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") ||
				!strings.Contains(string(body), "tetrium_jobs_done 1") {
				t.Errorf("/metrics content type %q, body:\n%s", ct, body)
			}
			resp, body = do(t, "GET", base+"/metrics.txt", "", nil)
			wantStatus(t, "metrics.txt", resp, http.StatusOK)
			if !strings.Contains(string(body), "jobs.done 1") {
				t.Errorf("/metrics.txt missing jobs.done 1:\n%s", body)
			}

			// Events: no cursor means from the beginning, with the same
			// headers as any other page; the returned cursor round-trips.
			resp, body = do(t, "GET", base+"/debug/events", "", nil)
			wantStatus(t, "events", resp, http.StatusOK)
			next := resp.Header.Get("Tetrium-Events-Next")
			if next == "" || resp.Header.Get("Tetrium-Events-Missed") != "0" || resp.Header.Get("Tetrium-Events-Dropped") != "" {
				t.Errorf("events headers without ?since: %v", resp.Header)
			}
			if strings.Count(next, ":") != b.shards-1 {
				t.Errorf("cursor %q, want %d fields", next, b.shards)
			}
			n := eventLines(t, body)
			if n < 3 {
				t.Errorf("events: %d lines, want several", n)
			}
			resp, body = do(t, "GET", base+"/debug/events?since=0", "", nil)
			if m := eventLines(t, body); m != n || resp.Header.Get("Tetrium-Events-Next") != next {
				t.Errorf("since=0: %d lines next %q, want %d and %q", m, resp.Header.Get("Tetrium-Events-Next"), n, next)
			}
			resp, body = do(t, "GET", base+"/debug/events?since="+next, "", nil)
			wantStatus(t, "events at the tip", resp, http.StatusOK)
			if m := eventLines(t, body); m != 0 || resp.Header.Get("Tetrium-Events-Next") != next {
				t.Errorf("tip page: %d lines next %q, want 0 and %q", m, resp.Header.Get("Tetrium-Events-Next"), next)
			}
			resp, _ = do(t, "GET", base+"/debug/events?since=-1", "", nil)
			wantStatus(t, "bad cursor", resp, http.StatusBadRequest)

			// Draining: liveness stays green, readiness and admission do not.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := svc.Drain(ctx); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			resp, _ = do(t, "POST", base+"/v1/jobs", "", jobBody(t, "late"))
			wantStatus(t, "submit while draining", resp, http.StatusServiceUnavailable)
			resp, body = do(t, "GET", base+"/readyz", "", nil)
			wantStatus(t, "readyz while draining", resp, http.StatusServiceUnavailable)
			if !strings.Contains(string(body), "draining") {
				t.Errorf("readyz while draining: %s", body)
			}
			resp, _ = do(t, "GET", base+"/healthz", "", nil)
			wantStatus(t, "healthz while draining", resp, http.StatusOK)

			// Stopped: nothing answers.
			svc.Close()
			for _, route := range []string{"/healthz", "/readyz", "/v1/jobs", "/v1/cluster", "/metrics", "/debug/events"} {
				resp, _ = do(t, "GET", base+route, "", nil)
				wantStatus(t, route+" after close", resp, http.StatusServiceUnavailable)
			}
		})
	}
}

// TestBackpressureContract: a full queue — every shard's, on a fleet —
// answers 429 with an integer Retry-After within the engine's clamp.
func TestBackpressureContract(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			svc := b.start(t, func(cfg *engine.Config) {
				cfg.MaxPending = 1
				cfg.TimeScale = 1000 // admitted jobs park, the queue stays full
			})
			base := serveBackend(t, svc).URL
			for i := 0; i < b.shards; i++ {
				resp, _ := do(t, "POST", base+"/v1/jobs", "", jobBody(t, fmt.Sprintf("fill-%d", i)))
				wantStatus(t, "filling submit", resp, http.StatusAccepted)
			}
			resp, _ := do(t, "POST", base+"/v1/jobs", "", jobBody(t, "over"))
			wantStatus(t, "over-limit submit", resp, http.StatusTooManyRequests)
			var secs int
			if _, err := fmt.Sscanf(resp.Header.Get("Retry-After"), "%d", &secs); err != nil || secs < 1 || secs > 60 {
				t.Errorf("Retry-After = %q, want integer seconds in [1,60]", resp.Header.Get("Retry-After"))
			}
		})
	}
}

// TestUnusableScalarsContract: stage scalars the placement LPs and the
// byte accounting cannot use are the caller's mistake on both backends.
// Both bodies used to be admitted: the first finished with a negative
// wan_bytes, the second with +Inf, which no JSON encoder renders — so
// GET /v1/jobs then answered 200 with an empty body for the life of the
// process.
func TestUnusableScalarsContract(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			base := serveBackend(t, b.start(t, nil)).URL
			for what, scalars := range map[string]string{
				"negative output ratio":    `"output_ratio":-3,"est_compute":1`,
				"overflowing output ratio": `"output_ratio":1e300,"est_compute":1e300`,
			} {
				body := `{"name":"x","stages":[{"kind":"map",` + scalars +
					`,"tasks":[{"src":0,"input":1e9,"compute":1},{"src":1,"input":1e9,"compute":1}]},` +
					`{"kind":"reduce","deps":[0],"output_ratio":1,"est_compute":1,"tasks":[{"compute":1}]}]}`
				t.Run(what, func(t *testing.T) {
					resp, _ := do(t, "POST", base+"/v1/jobs", "", []byte(body))
					wantStatus(t, what, resp, http.StatusBadRequest)
					resp, ack := do(t, "POST", base+"/v1/jobs", "", jobBody(t, "after "+what))
					wantStatus(t, "submit after the refusal", resp, http.StatusAccepted)
					pollState(t, base, decodeJob(t, ack).ID, "done")
					resp, list := do(t, "GET", base+"/v1/jobs", "", nil)
					wantStatus(t, "list", resp, http.StatusOK)
					var all []api.JobStatus
					if err := json.Unmarshal(list, &all); err != nil || len(all) == 0 {
						t.Errorf("job list after %s = %q (%v), want the finished jobs", what, list, err)
					}
				})
			}
		})
	}
}

// failing answers every data method with one error, so the table below
// exercises the error map on each route; the back-off hints still come
// from the real backend embedded in it.
type failing struct {
	api.Service
	err error
}

func (f failing) SubmitIdem(*workload.Job, string) (engine.JobStatus, bool, error) {
	return engine.JobStatus{}, false, f.err
}
func (f failing) Job(int) (engine.JobStatus, error)              { return engine.JobStatus{}, f.err }
func (f failing) Jobs() ([]engine.JobStatus, error)              { return nil, f.err }
func (f failing) Cluster() (engine.ClusterStatus, error)         { return engine.ClusterStatus{}, f.err }
func (f failing) UpdateCluster([]engine.SiteUpdate) (int, error) { return 0, f.err }
func (f failing) MetricsRegistry() (*obs.Registry, error)        { return nil, f.err }
func (f failing) EventsAfter(string) (func(io.Writer) error, string, int64, error) {
	return nil, "", 0, f.err
}

// TestErrorMapEveryRoute pins the one sentinel→status map: whichever
// route an error surfaces on, it answers the same status, a 429 always
// carries Retry-After, and a 503 carries one exactly when a supervisor
// has a restart scheduled.
func TestErrorMapEveryRoute(t *testing.T) {
	eng := backends[0].start(t, nil)
	t.Cleanup(eng.Close)

	// A supervised fleet with both shards down and a long backoff: the
	// 503s it answers name when the next restart is due.
	fed, err := federation.New(federation.Config{
		Shards:     2,
		Cluster:    cluster.EC2EightRegions(),
		Member:     func(int) (engine.Config, error) { return baseConfig(nil), nil },
		Supervise:  true,
		Supervisor: federation.SupervisorConfig{ProbeInterval: 5 * time.Millisecond, BackoffBase: time.Minute, BackoffMax: time.Minute},
	})
	if err != nil {
		t.Fatalf("federation.New: %v", err)
	}
	t.Cleanup(fed.Close)
	fed.Shard(0).Close()
	fed.Shard(1).Close()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := fed.UnhealthyRetryAfter(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("supervisor never scheduled a restart")
		}
	}

	routes := []struct{ method, path, body string }{
		{"POST", "/v1/jobs", string(jobBody(t, "x"))},
		{"GET", "/v1/jobs", ""},
		{"GET", "/v1/jobs/1", ""},
		{"GET", "/v1/cluster", ""},
		{"POST", "/v1/cluster/update", `{"sites":[{"site":0,"frac":0.5}]}`},
		{"GET", "/metrics", ""},
		{"GET", "/metrics.txt", ""},
		{"GET", "/debug/events", ""},
	}
	sentinels := []struct {
		err  error
		want int
	}{
		{engine.ErrQueueFull, http.StatusTooManyRequests},
		{engine.ErrDraining, http.StatusServiceUnavailable},
		{engine.ErrStopped, http.StatusServiceUnavailable},
		{engine.ErrPanicked, http.StatusServiceUnavailable},
		{federation.ErrNoShards, http.StatusServiceUnavailable},
		{fmt.Errorf("shard 1: %w", engine.ErrPanicked), http.StatusServiceUnavailable},
		{engine.ErrNotFound, http.StatusNotFound},
		{errors.New("site 42 out of range"), http.StatusBadRequest},
	}
	for _, b := range []struct {
		name       string
		svc        api.Service
		supervised bool
	}{{"engine", eng, false}, {"supervised federation", fed, true}} {
		for _, s := range sentinels {
			srv := httptest.NewServer(api.Handler(failing{b.svc, s.err}))
			for _, r := range routes {
				what := fmt.Sprintf("%s: %v on %s %s", b.name, s.err, r.method, r.path)
				resp, body := do(t, r.method, srv.URL+r.path, "", []byte(r.body))
				wantStatus(t, what, resp, s.want)
				if !strings.Contains(string(body), s.err.Error()) {
					t.Errorf("%s: body %s does not carry the error", what, body)
				}
				wantHint := s.want == http.StatusTooManyRequests ||
					(s.want == http.StatusServiceUnavailable && b.supervised)
				if got := resp.Header.Get("Retry-After") != ""; got != wantHint {
					t.Errorf("%s: Retry-After %q, want present=%v", what, resp.Header.Get("Retry-After"), wantHint)
				}
			}
			srv.Close()
		}
	}
}

// TestFailedFleetUpdateIs503: an update that every shard's event loop
// aborted with a contained panic is the service's fault, not the
// caller's — a fleet answers 503 (it used to answer 400), as one engine
// does (TestPanickedRequestIs503).
func TestFailedFleetUpdateIs503(t *testing.T) {
	fleet := backends[1]
	pp := &api.PanicPlacer{Placer: place.Tetrium{}}
	svc := fleet.start(t, func(cfg *engine.Config) {
		cfg.Placer = pp
		cfg.TimeScale = 1e6 // stages stay live for the update to re-place
		cfg.PlaceCacheSize = -1
	})
	base := serveBackend(t, svc).URL
	// A running stage on every shard, so every shard's §4.2 restamp
	// solves — inline, inside the update's own closure.
	onShard := map[int]bool{}
	for i := 0; len(onShard) < fleet.shards; i++ {
		if i == 32 {
			t.Fatalf("32 jobs reached only shards %v", onShard)
		}
		resp, body := do(t, "POST", base+"/v1/jobs", "", jobBody(t, fmt.Sprintf("live-%d", i)))
		wantStatus(t, "submit", resp, http.StatusAccepted)
		id := decodeJob(t, body).ID
		pollState(t, base, id, "running")
		onShard[id%fleet.shards] = true
	}
	pp.Armed.Store(true)
	resp, _ := do(t, "POST", base+"/v1/cluster/update", "", []byte(`{"sites":[{"site":0,"frac":0.5}]}`))
	wantStatus(t, "update aborted by contained panics", resp, http.StatusServiceUnavailable)
	pp.Armed.Store(false)
	resp, _ = do(t, "GET", base+"/healthz", "", nil)
	wantStatus(t, "healthz after contained panics", resp, http.StatusOK)
}

// TestMetricsRenderedOffLoop: /metrics and /metrics.txt render the
// registry snapshot in the handler; for one engine the bytes are what
// the engine's own on-loop renderers (the parent commit's route) give
// for the same registry.
//
// Every read is a loop request, and once a request's loop span ends it
// can move engine.loop_stall_max_ns and engine.loop_stall_ns, which the
// next read shows. Two on-loop renders bracketing the handler's read
// never agree under -race: a render there takes longer than the
// engine's 100 µs stall floor, so its own span is always recorded. The
// handler's read is therefore compared with the on-loop render right
// after it, which differs from it by at most the read's own span; a
// read whose span was recorded is retried, every line compared.
func TestMetricsRenderedOffLoop(t *testing.T) {
	cfg := baseConfig(nil)
	cfg.Cluster = cluster.EC2EightRegions()
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	base := serveBackend(t, api.EngineService(e)).URL
	_, body := do(t, "POST", base+"/v1/jobs", "", jobBody(t, "m"))
	pollState(t, base, decodeJob(t, body).ID, "done")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil { // quiescent: only the reads below enter the loop
		t.Fatalf("Drain: %v", err)
	}
	for route, render := range map[string]func() ([]byte, error){
		"/metrics":     e.MetricsPrometheus,
		"/metrics.txt": e.MetricsText,
	} {
		const attempts = 50
		for i := 1; ; i++ {
			_, got := do(t, "GET", base+route, "", nil)
			want, err := render()
			if err != nil {
				t.Fatalf("%s: %v", route, err)
			}
			if bytes.Equal(got, want) {
				break
			}
			if i == attempts {
				t.Fatalf("%s differs from the on-loop rendering in %d attempts:\n got: %s\nwant: %s", route, attempts, got, want)
			}
		}
	}
}

// TestMaxBodyBytesHeadroom sizes the request bound: the largest job any
// trace generator produces on the 50-site preset must fit four times
// over.
func TestMaxBodyBytesHeadroom(t *testing.T) {
	largest := 0
	for _, kind := range []tetrium.TraceKind{tetrium.TraceTPCDS, tetrium.TraceBigData, tetrium.TraceProduction} {
		for _, j := range tetrium.GenerateTrace(kind, tetrium.Sim50(1), 300, 1) {
			body, err := json.Marshal(api.FromWorkload(j))
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			if len(body) > largest {
				largest = len(body)
			}
		}
	}
	if 4*largest > api.MaxBodyBytes {
		t.Errorf("largest generated body is %d bytes; MaxBodyBytes %d leaves under 4× headroom", largest, api.MaxBodyBytes)
	}
}
