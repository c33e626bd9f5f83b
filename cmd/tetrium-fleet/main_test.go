package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"tetrium"
	"tetrium/internal/cluster"
	"tetrium/internal/engine/api"
	"tetrium/internal/fleet"
)

// TestMain doubles as the tetrium-fleet process for the CLI test below.
func TestMain(m *testing.M) {
	if os.Getenv("TETRIUM_FLEET_HELPER") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestAnalyticsSmoke is the `make analytics-smoke` gate: a live server
// with analytics enabled runs a small multi-tenant load, all four
// /v1/analytics endpoint families return non-empty well-formed JSON,
// and offline tetrium-fleet ingestion of the run's journal + event
// trace reproduces the live totals bit-for-bit.
func TestAnalyticsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	jpath := filepath.Join(dir, "run.journal")

	cl, err := cluster.Preset("paper", 1)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	eng, err := tetrium.NewEngine(tetrium.EngineOptions{
		Cluster:     cl,
		JournalPath: jpath,
		Analytics:   true,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	srv := httptest.NewServer(tetrium.EngineHandler(eng))
	defer srv.Close()

	// Multi-tenant load: three tenants, a dozen jobs.
	jobs := tetrium.GenerateTrace(tetrium.TraceBigData, cl, 12, 1)
	tenants := []string{"acme", "beta", "gamma"}
	for i, j := range jobs {
		j.Tenant = tenants[i%len(tenants)]
		body, err := json.Marshal(api.FromWorkload(j))
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/jobs: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %s", i, resp.Status)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := eng.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// All four endpoint families: non-empty, well-formed, per-tenant.
	var liveTotals fleet.Totals
	for _, ep := range []string{
		"/v1/analytics/resource-hogs",
		"/v1/analytics/efficiency",
		"/v1/analytics/estimate-accuracy",
		"/v1/analytics/capacity/usage-trends",
	} {
		resp, err := http.Get(srv.URL + ep)
		if err != nil {
			t.Fatalf("GET %s: %v", ep, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", ep, resp.Status)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("GET %s: not a JSON object: %v", ep, err)
		}
		if len(doc) == 0 {
			t.Fatalf("GET %s: empty document", ep)
		}
	}
	var hogs fleet.ResourceHogs
	resp, err := http.Get(srv.URL + "/v1/analytics/resource-hogs")
	if err != nil {
		t.Fatalf("GET resource-hogs: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&hogs); err != nil {
		t.Fatalf("decode resource-hogs: %v", err)
	}
	resp.Body.Close()
	liveTotals = hogs.Totals
	if liveTotals.Jobs != len(jobs) || liveTotals.SlotSeconds <= 0 {
		t.Fatalf("implausible live totals: %+v", liveTotals)
	}
	seen := map[string]bool{}
	for _, tn := range hogs.Tenants {
		seen[tn.Tenant] = true
	}
	for _, want := range tenants {
		if !seen[want] {
			t.Fatalf("tenant %q missing from live report: %+v", want, hogs.Tenants)
		}
	}

	// Save the event trace, then shut down (flushing the journal).
	epath := filepath.Join(dir, "events.jsonl")
	resp, err = http.Get(srv.URL + "/debug/events")
	if err != nil {
		t.Fatalf("GET /debug/events: %v", err)
	}
	trace, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("Tetrium-Events-Missed") != "0" {
		t.Fatalf("event ring dropped events; parity check needs the full trace")
	}
	if err := os.WriteFile(epath, trace, 0o644); err != nil {
		t.Fatalf("save trace: %v", err)
	}
	srv.Close()
	eng.Close()

	// Offline: the real CLI ingests the artifacts and must reproduce the
	// live totals bit-for-bit.
	cmd := exec.Command(os.Args[0], "-journal", jpath, "-events", epath, "-json")
	cmd.Env = append(os.Environ(), "TETRIUM_FLEET_HELPER=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("tetrium-fleet: %v\nstderr:\n%s", err, stderr.String())
	}
	var snap fleet.Snapshot
	if err := json.Unmarshal(stdout.Bytes(), &snap); err != nil {
		t.Fatalf("tetrium-fleet -json output: %v\n%s", err, stdout.String())
	}
	if snap.Totals != liveTotals {
		t.Errorf("offline totals diverge from live:\nlive    %+v\noffline %+v\nstderr:\n%s",
			liveTotals, snap.Totals, stderr.String())
	}

	// The human-readable report path also runs clean.
	cmd = exec.Command(os.Args[0], "-journal", jpath, "-events", epath)
	cmd.Env = append(os.Environ(), "TETRIUM_FLEET_HELPER=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("tetrium-fleet report: %v\n%s", err, out)
	}
	for _, want := range []string{"totals:", "resource hogs", "efficiency:", "estimate accuracy", "usage trends"} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestFleetCLIUsage: no inputs is a usage error, not a crash.
func TestFleetCLIUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "TETRIUM_FLEET_HELPER=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("expected non-zero exit with no inputs; output:\n%s", out)
	}
	if !bytes.Contains(out, []byte("-journal")) {
		t.Errorf("usage message does not mention -journal:\n%s", out)
	}
}
