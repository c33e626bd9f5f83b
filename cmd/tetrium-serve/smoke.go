package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tetrium"
	"tetrium/internal/engine/api"
	"tetrium/internal/federation"
	"tetrium/internal/workload"
)

// runSmoke is the CI end-to-end check, run against the live server at
// base: submit jobs over the wire, fire a §4.2 cluster update, poll
// everything to completion, scrape /metrics and /debug/events, then
// drain and prove admission is closed. When svc is a federation the
// fleet-only steps run too: the router must spread the jobs, shard 0 is
// killed and restored from its journal mid-flight (journaled
// deployments only) without losing an admitted job, /v1/federation
// reports every member, and the events cursor is a per-shard vector.
// Any deviation is an error (non-zero exit).
func runSmoke(svc api.Service, base string) error {
	client := &http.Client{Timeout: 10 * time.Second}
	fed, _ := svc.(*tetrium.Federation)
	shards := 1

	if body, err := smokeGet(client, base+"/healthz"); err != nil {
		return fmt.Errorf("healthz: %w", err)
	} else if !strings.Contains(body, "ok") {
		return fmt.Errorf("healthz replied %q", body)
	}
	if _, err := smokeGet(client, base+"/readyz"); err != nil {
		return fmt.Errorf("readyz: %w", err)
	}
	var fs federation.FederationStatus
	if fed != nil {
		shards = fed.NumShards()
		body, err := smokeGet(client, base+"/v1/federation")
		if err != nil {
			return fmt.Errorf("federation status: %w", err)
		}
		if err := json.Unmarshal([]byte(body), &fs); err != nil {
			return fmt.Errorf("federation status: %w", err)
		}
		if fs.Shards != shards || len(fs.Members) != shards {
			return fmt.Errorf("federation status reports %d shards / %d members, want %d",
				fs.Shards, len(fs.Members), shards)
		}
	}

	// Cluster shape drives the generated jobs: enough of them that every
	// shard of a small fleet holds work when one dies.
	cl, err := fetchCluster(client, base)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	jobs := workload.Generate(workload.BigData(cl.N(), 5*shards, 42))
	var ids []int
	for _, j := range jobs {
		id, err := submitJob(client, base, j)
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		ids = append(ids, id)
	}
	fmt.Printf("smoke: submitted %d jobs\n", len(ids))

	if fed != nil {
		seen := map[int]bool{}
		for _, id := range ids {
			seen[id%shards] = true
		}
		if len(seen) < 2 {
			return fmt.Errorf("all %d jobs landed on one shard; shard map not spreading", len(ids))
		}
		// Kill shard 0 while jobs are in flight; its journal restores the
		// admitted jobs and they re-run under their original IDs.
		if fs.Journal {
			if err := fed.RestartShard(0); err != nil {
				return fmt.Errorf("restart shard 0: %w", err)
			}
			fmt.Println("smoke: shard 0 killed and restored from journal")
		}
	}

	// Mid-run §4.2 update while jobs are (possibly) still running; on a
	// fleet it fans out to every shard's slice.
	if err := postDrop(client, base, 0, 0.3); err != nil {
		return fmt.Errorf("cluster update: %w", err)
	}

	// Every admitted job must reach done — none lost to the shard kill.
	deadline := time.Now().Add(60 * time.Second)
	for _, id := range ids {
		for {
			body, err := smokeGet(client, fmt.Sprintf("%s/v1/jobs/%d", base, id))
			if err != nil {
				return fmt.Errorf("poll job %d: %w", id, err)
			}
			var st api.JobStatus
			if err := json.Unmarshal([]byte(body), &st); err != nil {
				return fmt.Errorf("poll job %d: %w", id, err)
			}
			if st.State == "done" {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("job %d stuck in state %q", id, st.State)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	fmt.Println("smoke: all jobs completed")

	// Both metrics formats must count every completion exactly once.
	prom, err := smokeGet(client, base+"/metrics")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if want := fmt.Sprintf("tetrium_jobs_done %d", len(ids)); !strings.Contains(prom, want) {
		return fmt.Errorf("/metrics missing %q (lost or double-counted completions):\n%s", want, prom)
	}
	if fed != nil && !strings.Contains(prom, "tetrium_federation_shards") {
		return fmt.Errorf("/metrics missing federation gauges:\n%s", prom)
	}
	txt, err := smokeGet(client, base+"/metrics.txt")
	if err != nil {
		return fmt.Errorf("metrics.txt: %w", err)
	}
	if want := fmt.Sprintf("jobs.done %d", len(ids)); !strings.Contains(txt, want) {
		return fmt.Errorf("/metrics.txt missing %q:\n%s", want, txt)
	}

	// The event stream must show the drop (one per shard) and its
	// re-placements, and its cursor must round-trip.
	restamps, drops, next, err := countReplacements(client, base)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	if drops != shards {
		return fmt.Errorf("events recorded %d drops, want %d", drops, shards)
	}
	if strings.Count(next, ":") != shards-1 {
		return fmt.Errorf("events cursor %q is not a %d-field vector", next, shards)
	}
	if _, err := smokeGet(client, base+"/debug/events?since="+next); err != nil {
		return fmt.Errorf("events since %q: %w", next, err)
	}
	fmt.Printf("smoke: events show %d drop, %d re-placements\n", drops, restamps)

	// Graceful drain: no further admissions, queue empties.
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if _, err := submitJob(client, base, jobs[0]); err == nil {
		return fmt.Errorf("submission accepted while draining")
	}
	return nil
}

func smokeGet(client *http.Client, url string) (string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return string(body), fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(body), nil
}

func fetchCluster(client *http.Client, base string) (*tetrium.Cluster, error) {
	body, err := smokeGet(client, base+"/v1/cluster")
	if err != nil {
		return nil, err
	}
	var cs api.ClusterStatus
	if err := json.Unmarshal([]byte(body), &cs); err != nil {
		return nil, err
	}
	sites := make([]tetrium.Site, len(cs.Sites))
	for i, s := range cs.Sites {
		sites[i] = tetrium.Site{Name: s.Name, Slots: s.Slots, UpBW: s.UpBW, DownBW: s.DownBW}
	}
	return tetrium.NewCluster(sites), nil
}

// submitJob posts one job, retrying on 429 backpressure until accepted.
func submitJob(client *http.Client, base string, j *tetrium.Job) (int, error) {
	body, err := json.Marshal(api.FromWorkload(j))
	if err != nil {
		return 0, err
	}
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			resp.Body.Close()
			if attempt > 600 {
				return 0, fmt.Errorf("still backpressured after %d attempts", attempt)
			}
			wait := time.Duration(1+attempt%5) * 100 * time.Millisecond
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if s, err := strconv.Atoi(ra); err == nil {
					wait = time.Duration(s) * time.Second
				}
			}
			time.Sleep(wait)
			continue
		}
		var st api.JobStatus
		derr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return 0, fmt.Errorf("POST /v1/jobs: %s", resp.Status)
		}
		if derr != nil {
			return 0, derr
		}
		return st.ID, nil
	}
}

// postDrop applies one §4.2 capacity drop: site keeps frac of its
// capacity.
func postDrop(client *http.Client, base string, site int, frac float64) error {
	body, _ := json.Marshal(api.UpdateRequest{Sites: []api.SiteUpdate{{Site: site, Frac: frac}}})
	resp, err := client.Post(base+"/v1/cluster/update", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/cluster/update: %s", resp.Status)
	}
	var ur api.UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		return err
	}
	fmt.Printf("cluster update: server re-placed %d stages\n", ur.StagesReplaced)
	return nil
}

// countReplacements scans /debug/events for §4.2 activity — DropEvents
// and Restamp placements — and returns the cursor for the next poll.
func countReplacements(client *http.Client, base string) (restamps, drops int, next string, err error) {
	resp, err := client.Get(base + "/debug/events")
	if err != nil {
		return 0, 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, "", fmt.Errorf("GET /debug/events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec struct {
			K string `json:"k"`
			E struct {
				Restamp bool `json:"restamp"`
			} `json:"e"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue
		}
		switch rec.K {
		case "placement":
			if rec.E.Restamp {
				restamps++
			}
		case "drop":
			drops++
		}
	}
	return restamps, drops, resp.Header.Get("Tetrium-Events-Next"), sc.Err()
}
