package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"tetrium/internal/engine"
	"tetrium/internal/fleet"
	"tetrium/internal/obs"
)

// Handler serves an Engine over HTTP. The handler is stateless: all
// synchronization lives behind the engine's event loop, so it is safe
// under any number of concurrent requests.
func Handler(e *engine.Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		job, err := spec.ToWorkload()
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		// An Idempotency-Key makes retrying this POST safe: a replay of an
		// already-admitted key returns the original job (200 with
		// Tetrium-Idempotent-Replay: true) instead of admitting a twin,
		// including after a restart from the journal.
		st, dup, err := e.SubmitIdem(job, r.Header.Get("Idempotency-Key"))
		if err != nil {
			writeEngineErr(e, w, err)
			return
		}
		if dup {
			w.Header().Set("Tetrium-Idempotent-Replay", "true")
			writeJSON(w, http.StatusOK, jobStatus(st))
			return
		}
		writeJSON(w, http.StatusAccepted, jobStatus(st))
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		sts, err := e.Jobs()
		if err != nil {
			writeEngineErr(e, w, err)
			return
		}
		out := make([]JobStatus, 0, len(sts))
		for _, st := range sts {
			out = append(out, jobStatus(st))
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		st, err := e.Job(id)
		if err != nil {
			writeEngineErr(e, w, err)
			return
		}
		writeJSON(w, http.StatusOK, jobStatus(st))
	})
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		cs, err := e.Cluster()
		if err != nil {
			writeEngineErr(e, w, err)
			return
		}
		writeJSON(w, http.StatusOK, clusterStatus(cs))
	})
	mux.HandleFunc("POST /v1/cluster/update", func(w http.ResponseWriter, r *http.Request) {
		var req UpdateRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		ups := make([]engine.SiteUpdate, 0, len(req.Sites))
		for _, u := range req.Sites {
			ups = append(ups, u.toEngine())
		}
		replaced, err := e.UpdateCluster(ups)
		if err != nil {
			writeEngineErr(e, w, err)
			return
		}
		writeJSON(w, http.StatusOK, UpdateResponse{StagesReplaced: replaced})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		body, err := e.MetricsPrometheus()
		if err != nil {
			writeEngineErr(e, w, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(body)
	})
	mux.HandleFunc("GET /metrics.txt", func(w http.ResponseWriter, r *http.Request) {
		body, err := e.MetricsText()
		if err != nil {
			writeEngineErr(e, w, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(body)
	})
	mux.HandleFunc("GET /debug/events", func(w http.ResponseWriter, r *http.Request) {
		// Cursor pagination over the bounded ring: ?since=<seq> returns
		// only events newer than seq (the i-th event ever emitted has
		// sequence i+1). Pollers pass the Tetrium-Events-Next value of
		// the previous response; Tetrium-Events-Missed reports requested
		// events already discarded from the ring (the poller fell
		// behind). Without ?since the full buffer is returned, with the
		// legacy Tetrium-Events-Dropped count.
		if sinceStr := r.URL.Query().Get("since"); sinceStr != "" {
			since, err := strconv.ParseInt(sinceStr, 10, 64)
			if err != nil || since < 0 {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("bad since cursor %q", sinceStr))
				return
			}
			evs, next, missed, err := e.EventsSince(since)
			if err != nil {
				writeEngineErr(e, w, err)
				return
			}
			w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
			w.Header().Set("Tetrium-Events-Next", strconv.FormatInt(next, 10))
			w.Header().Set("Tetrium-Events-Missed", strconv.FormatInt(missed, 10))
			obs.WriteJSONL(w, evs)
			return
		}
		evs, dropped, err := e.Events()
		if err != nil {
			writeEngineErr(e, w, err)
			return
		}
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		w.Header().Set("Tetrium-Events-Dropped", strconv.FormatInt(dropped, 10))
		obs.WriteJSONL(w, evs)
	})
	if st, ok := e.Analytics().(*fleet.Store); ok && st != nil {
		mux.Handle("/v1/analytics/", http.StripPrefix("/v1/analytics", fleet.Routes(st)))
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness: the event loop answers at all. Readiness (accepting
		// useful traffic) is /readyz's job.
		if _, err := e.Cluster(); err != nil {
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness: not ready while replaying the journal after a
		// restart, while draining toward shutdown, or once stopped.
		// Orchestrators route traffic elsewhere without killing the pod.
		if ok, reason := e.Ready(); !ok {
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: reason})
			return
		}
		w.Write([]byte("ready\n"))
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// writeEngineErr maps engine sentinels to HTTP semantics: backpressure
// is 429 with a Retry-After hint computed from queue overflow and the
// recent drain rate, drain/stop and a request aborted by a contained
// loop panic are 503 (the caller did nothing wrong; retry), unknown IDs
// 404, anything else a validation 400.
func writeEngineErr(e *engine.Engine, w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, engine.ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter()))
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, engine.ErrDraining), errors.Is(err, engine.ErrStopped),
		errors.Is(err, engine.ErrPanicked):
		writeErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, engine.ErrNotFound):
		writeErr(w, http.StatusNotFound, err)
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
}
