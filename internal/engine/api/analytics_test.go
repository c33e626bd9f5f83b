package api

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"tetrium/internal/engine"
	"tetrium/internal/fleet"
	"tetrium/internal/workload"
)

// getEventsSince pulls one /debug/events page and returns the JSONL
// line count plus the cursor headers.
func getEventsSince(t *testing.T, srv *httptest.Server, since int64) (lines int, next, missed int64) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/debug/events?since=%d", srv.URL, since))
	if err != nil {
		t.Fatalf("GET /debug/events?since=%d: %v", since, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/events?since=%d: %s", since, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec struct {
			K string `json:"k"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.K == "" {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines++
	}
	next, err = strconv.ParseInt(resp.Header.Get("Tetrium-Events-Next"), 10, 64)
	if err != nil {
		t.Fatalf("bad Tetrium-Events-Next %q", resp.Header.Get("Tetrium-Events-Next"))
	}
	missed, err = strconv.ParseInt(resp.Header.Get("Tetrium-Events-Missed"), 10, 64)
	if err != nil {
		t.Fatalf("bad Tetrium-Events-Missed %q", resp.Header.Get("Tetrium-Events-Missed"))
	}
	return lines, next, missed
}

// TestEventsSincePagination: the ?since cursor pages the ring without
// loss or duplication, reports wraparound via the Missed header, and
// rejects malformed cursors.
func TestEventsSincePagination(t *testing.T) {
	srv, _ := testServer(t, func(cfg *engine.Config) { cfg.EventCap = 64 })

	body := submitBody(t)
	ids := make([]int, 30)
	for i := range ids {
		resp, st := postJob(t, srv, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %s", i, resp.Status)
		}
		ids[i] = st.ID
	}
	// Every job, not just the last: an earlier one still running would
	// emit events between the pages below.
	for _, id := range ids {
		pollJobState(t, srv, id, "done")
	}

	// No cursor means since=0: after overflow, missed counts what the
	// ring discarded, and the page returns the whole retained ring.
	full, err := http.Get(srv.URL + "/debug/events")
	if err != nil {
		t.Fatalf("GET /debug/events: %v", err)
	}
	io.Copy(io.Discard, full.Body)
	full.Body.Close()
	dropped, _ := strconv.ParseInt(full.Header.Get("Tetrium-Events-Missed"), 10, 64)
	if dropped == 0 {
		t.Fatal("ring never wrapped; shrink EventCap or submit more jobs")
	}

	lines, next, missed := getEventsSince(t, srv, 0)
	if missed != dropped {
		t.Errorf("since=0 missed %d, want dropped %d", missed, dropped)
	}
	if int64(lines) != next-dropped {
		t.Errorf("since=0 returned %d lines, want next−dropped = %d", lines, next-dropped)
	}

	// Mid-ring cursor: a valid resume point returns exactly the tail.
	mid := dropped + (next-dropped)/2
	lines, next2, missed := getEventsSince(t, srv, mid)
	if missed != 0 {
		t.Errorf("mid-ring cursor %d missed %d, want 0", mid, missed)
	}
	if int64(lines) != next2-mid {
		t.Errorf("mid-ring returned %d lines, want %d", lines, next2-mid)
	}

	// Tip cursor: empty page, cursor stable.
	lines, next3, missed := getEventsSince(t, srv, next2)
	if lines != 0 || next3 != next2 || missed != 0 {
		t.Errorf("tip page: lines=%d next=%d missed=%d, want 0/%d/0", lines, next3, missed, next2)
	}

	// Malformed cursors are 400s.
	for _, bad := range []string{"x", "-1", "1.5"} {
		resp, err := http.Get(srv.URL + "/debug/events?since=" + bad)
		if err != nil {
			t.Fatalf("GET bad since: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("since=%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestAnalyticsEndpoints: with a fleet store configured, all four
// endpoint families serve non-empty, well-formed, per-tenant JSON;
// without one, the routes 404.
func TestAnalyticsEndpoints(t *testing.T) {
	store := fleet.New(fleet.Config{})
	srv, _ := testServer(t, func(cfg *engine.Config) { cfg.Analytics = store })

	jobs := workload.Generate(workload.BigData(3, 6, 5))
	var lastID int
	for i, j := range jobs {
		j.Tenant = []string{"acme", "beta"}[i%2]
		body, err := json.Marshal(FromWorkload(j))
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		resp, st := postJob(t, srv, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %s", i, resp.Status)
		}
		lastID = st.ID
	}
	// All jobs done: poll each to quiesce before asserting aggregates.
	for id := 0; id <= lastID; id++ {
		pollJobState(t, srv, id, "done")
	}

	var hogs fleet.ResourceHogs
	getJSON(t, srv, "/v1/analytics/resource-hogs?top=3", &hogs)
	if hogs.Totals.Jobs != len(jobs) || hogs.Totals.SlotSeconds <= 0 {
		t.Errorf("resource-hogs totals: %+v", hogs.Totals)
	}
	seen := map[string]bool{}
	for _, tn := range hogs.Tenants {
		seen[tn.Tenant] = true
	}
	if !seen["acme"] || !seen["beta"] {
		t.Errorf("tenant grouping missing: %+v", hogs.Tenants)
	}
	if len(hogs.TopJobsBySlotSeconds) == 0 || len(hogs.TopJobsBySlotSeconds) > 3 {
		t.Errorf("top jobs: %d rows, want 1..3", len(hogs.TopJobsBySlotSeconds))
	}

	var eff fleet.Efficiency
	getJSON(t, srv, "/v1/analytics/efficiency", &eff)
	if len(eff.Tenants) < 2 {
		t.Errorf("efficiency tenants: %+v", eff.Tenants)
	}
	if eff.LPSolves+eff.LPCacheHits == 0 {
		t.Error("efficiency: no LP decisions recorded")
	}

	var acc fleet.EstimateAccuracy
	getJSON(t, srv, "/v1/analytics/estimate-accuracy", &acc)
	if acc.Overall.Count == 0 {
		t.Error("estimate-accuracy: no samples")
	}
	if len(acc.Tenants) < 2 {
		t.Errorf("estimate-accuracy tenants: %+v", acc.Tenants)
	}

	var tr fleet.UsageTrends
	getJSON(t, srv, "/v1/analytics/capacity/usage-trends", &tr)
	if len(tr.Windows) == 0 {
		t.Error("usage-trends: no windows")
	}

	var snap fleet.Snapshot
	getJSON(t, srv, "/v1/analytics/summary", &snap)
	if snap.Totals != hogs.Totals {
		t.Errorf("summary totals %+v != resource-hogs totals %+v", snap.Totals, hogs.Totals)
	}

	// The engine owns the store's lifecycle now (io.Closer), so no
	// explicit Close here; the testServer cleanup closes the engine.
}

func TestAnalyticsDisabled404(t *testing.T) {
	srv, _ := testServer(t, nil)
	resp, err := http.Get(srv.URL + "/v1/analytics/resource-hogs")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("analytics disabled: status %d, want 404", resp.StatusCode)
	}
}

func getJSON(t *testing.T, srv *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", path, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("GET %s: content type %q", path, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}
