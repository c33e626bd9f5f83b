package federation

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"tetrium/internal/engine/api"
)

// The HTTP surface is api.Handler over the api.Service a *Federation
// satisfies. What differs from a single engine behind the same routes:
//
//   - job IDs are federation IDs (shard-local ID · shards + shard);
//   - /metrics and /metrics.txt are the merged fleet registry;
//   - /debug/events merges the shard streams by timestamp; each JSONL
//     line carries a "shard" field, and the ?since cursor (and the
//     Tetrium-Events-Next header) is a colon-separated per-shard
//     cursor vector like "120:98";
//   - /readyz degrades rather than flips: it reports ready while at
//     least one shard is, with the not-ready shards named in the body;
//   - GET /v1/federation (Mount) reports per-shard routing state.
var _ api.Service = (*Federation)(nil)

// Mount adds GET /v1/federation, the one route only a fleet serves.
func (f *Federation) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/federation", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, federationStatus(f))
	})
}

// EventsAfter is EventsSince behind the wire cursor: it parses the
// "c0:c1:…" vector (none means from the beginning) and returns the
// merged stream as shard-tagged JSON Lines.
func (f *Federation) EventsAfter(cursor string) (func(io.Writer) error, string, int64, error) {
	var cursors []int64
	if cursor != "" {
		var err error
		if cursors, err = ParseCursor(cursor, f.n); err != nil {
			return nil, "", 0, err
		}
	}
	evs, next, missed, err := f.EventsSince(cursors)
	if err != nil {
		return nil, "", 0, err
	}
	write := func(w io.Writer) error { return writeShardJSONL(w, evs) }
	return write, FormatCursor(next), missed, nil
}

// FormatCursor renders a per-shard cursor vector as "c0:c1:…".
func FormatCursor(cursors []int64) string {
	parts := make([]string, len(cursors))
	for i, c := range cursors {
		parts[i] = strconv.FormatInt(c, 10)
	}
	return strings.Join(parts, ":")
}

// ParseCursor parses a "c0:c1:…" cursor vector and validates its arity
// against the shard count. The bare "0" of the single-engine
// ?since=0 idiom is accepted as "from the beginning" regardless of
// shard count; any other scalar is ambiguous and rejected.
func ParseCursor(s string, shards int) ([]int64, error) {
	if s == "0" {
		return make([]int64, shards), nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != shards {
		return nil, fmt.Errorf("federation: cursor %q wants %d colon-separated fields", s, shards)
	}
	out := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("federation: bad cursor field %q in %q", p, s)
		}
		out[i] = v
	}
	return out, nil
}

// writeShardJSONL writes the merged stream as JSON Lines; each line is
// the single-engine format with a leading shard tag:
// {"shard":0,"k":"<kind>","e":{…}}.
func writeShardJSONL(w io.Writer, evs []ShardEvent) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, se := range evs {
		rec := struct {
			Shard int         `json:"shard"`
			K     string      `json:"k"`
			E     interface{} `json:"e"`
		}{se.Shard, se.Event.Kind(), se.Event}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ShardStatus is one shard's row in the GET /v1/federation response.
type ShardStatus struct {
	Shard      int    `json:"shard"`
	Ready      bool   `json:"ready"`
	Reason     string `json:"reason,omitempty"`
	ActiveJobs int    `json:"active_jobs"`
	MaxPending int    `json:"max_pending"`
	RetryAfter int    `json:"retry_after_s"`
	// Health is the supervisor's verdict (healthy/suspect/down/
	// restarting/parked); absent without supervision.
	Health string `json:"health,omitempty"`
	// HealthReason explains any non-healthy state.
	HealthReason string `json:"health_reason,omitempty"`
	// Generation is the shard's current journal epoch (journaled
	// deployments only).
	Generation int `json:"generation,omitempty"`
	// PanicsRecovered counts panics this shard instance contained.
	PanicsRecovered int64 `json:"panics_recovered,omitempty"`
}

// FederationStatus is the GET /v1/federation response.
type FederationStatus struct {
	Shards       int           `json:"shards"`
	Journal      bool          `json:"journaled"`
	Supervised   bool          `json:"supervised"`
	AutoRestarts int64         `json:"auto_restarts,omitempty"`
	Members      []ShardStatus `json:"members"`
}

func federationStatus(f *Federation) FederationStatus {
	out := FederationStatus{
		Shards:     f.NumShards(),
		Journal:    f.cfg.JournalPath != "",
		Supervised: f.sv != nil,
	}
	if f.sv != nil {
		out.AutoRestarts = f.sv.autoRestarts.Load()
	}
	for i := 0; i < f.NumShards(); i++ {
		e := f.Shard(i)
		ss := ShardStatus{Shard: i}
		ok, reason := e.Ready()
		ss.Ready = ok
		if !ok {
			ss.Reason = reason
		}
		if cs, err := e.Cluster(); err == nil {
			ss.ActiveJobs = cs.ActiveJobs
			ss.MaxPending = cs.MaxPending
		} else {
			ss.Reason = "stopped"
		}
		ss.RetryAfter = e.RetryAfter()
		ss.Generation = e.JournalGeneration()
		ss.PanicsRecovered = e.PanicsRecovered()
		if f.sv != nil {
			st, why, _ := f.sv.statusOf(i)
			ss.Health = st.String()
			ss.HealthReason = why
			if st != Healthy {
				ss.Ready = st == Suspect && ss.Ready
			}
		}
		out.Members = append(out.Members, ss)
	}
	return out
}
