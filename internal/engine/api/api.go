package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"tetrium/internal/engine"
	"tetrium/internal/fleet"
	"tetrium/internal/obs"
	"tetrium/internal/workload"
)

// Service is the scheduling service behind the HTTP surface: one
// engine (EngineService wraps it) or a federation of engine shards
// (*federation.Federation satisfies it as is). Handler is written once
// against it; cmd/tetrium-serve runs, smokes and drains whichever
// backend it was handed through the same interface.
type Service interface {
	// SubmitIdem admits a job; replay reports that idemKey had already
	// admitted one, whose status is returned instead of a twin's.
	SubmitIdem(job *workload.Job, idemKey string) (st engine.JobStatus, replay bool, err error)
	Job(id int) (engine.JobStatus, error)
	Jobs() ([]engine.JobStatus, error)
	Cluster() (engine.ClusterStatus, error)
	// UpdateCluster applies §4.2 capacity changes and returns how many
	// live stage placements were re-solved.
	UpdateCluster(ups []engine.SiteUpdate) (int, error)
	// MetricsRegistry returns a point-in-time copy of the metrics
	// registry, which the caller owns and renders off the event loop.
	MetricsRegistry() (*obs.Registry, error)
	// EventsAfter returns the retained debug events newer than cursor
	// ("" means from the beginning) as a JSON Lines writer, the cursor
	// for the next poll, and how many requested events the bounded ring
	// had already discarded. The cursor and the line format are the
	// backend's; a cursor it cannot parse is a plain (400) error.
	EventsAfter(cursor string) (write func(io.Writer) error, next string, missed int64, err error)
	// Ready reports whether the service can usefully accept traffic;
	// reason is the /readyz body either way.
	Ready() (ok bool, reason string)
	// Healthy reports whether any event loop still answers.
	Healthy() bool
	// RetryAfter is the back-off hint, in seconds, for a 429.
	RetryAfter() int
	// UnhealthyRetryAfter is the back-off hint for a 503; ok is false
	// when no recovery is scheduled.
	UnhealthyRetryAfter() (secs int, ok bool)
	// Mount adds the routes only this backend serves.
	Mount(mux *http.ServeMux)
	Drain(ctx context.Context) error
	Close()
}

// EngineService adapts a single engine to Service. Everything but the
// methods below is the engine's own; the adapter exists because the
// benchmark pins the engine's typed signatures (EventsSince(int64),
// MetricsSnapshot), which the interface cannot share with the
// federation's.
func EngineService(e *engine.Engine) Service { return engineService{e} }

type engineService struct{ *engine.Engine }

func (e engineService) MetricsRegistry() (*obs.Registry, error) { return e.MetricsSnapshot() }

// EventsAfter pages the bounded ring by sequence number: the i-th event
// ever emitted has sequence i+1, so cursor "0" (or none) asks for
// everything retained.
func (e engineService) EventsAfter(cursor string) (func(io.Writer) error, string, int64, error) {
	var since int64
	if cursor != "" {
		var err error
		if since, err = strconv.ParseInt(cursor, 10, 64); err != nil || since < 0 {
			return nil, "", 0, fmt.Errorf("bad since cursor %q", cursor)
		}
	}
	evs, next, missed, err := e.EventsSince(since)
	if err != nil {
		return nil, "", 0, err
	}
	write := func(w io.Writer) error { return obs.WriteJSONL(w, evs) }
	return write, strconv.FormatInt(next, 10), missed, nil
}

func (e engineService) Healthy() bool {
	_, err := e.Cluster()
	return err == nil
}

// UnhealthyRetryAfter: nothing restarts a lone engine.
func (e engineService) UnhealthyRetryAfter() (int, bool) { return 0, false }

// Mount serves the fleet-analytics reports when the engine has a store.
func (e engineService) Mount(mux *http.ServeMux) {
	if st, ok := e.Analytics().(*fleet.Store); ok && st != nil {
		mux.Handle("/v1/analytics/", http.StripPrefix("/v1/analytics", fleet.Routes(st)))
	}
}

// MaxBodyBytes bounds a POST body; a larger one answers 413. The
// largest job the trace generators produce on the 50-site preset
// marshals to ~150 KB, under a quarter of it
// (TestMaxBodyBytesHeadroom).
const MaxBodyBytes = 1 << 20

// Handler serves a Service over HTTP. The handler is stateless: all
// synchronization lives behind the service, so it is safe under any
// number of concurrent requests.
func Handler(svc Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		job, err := readJob(w, r)
		if err != nil {
			writeBodyErr(w, err)
			return
		}
		// An Idempotency-Key makes retrying this POST safe: a replay of an
		// already-admitted key returns the original job (200 with
		// Tetrium-Idempotent-Replay: true) instead of admitting a twin,
		// including after a restart from the journal.
		st, replay, err := svc.SubmitIdem(job, r.Header.Get("Idempotency-Key"))
		if err != nil {
			writeServiceErr(svc, w, err)
			return
		}
		if replay {
			w.Header().Set("Tetrium-Idempotent-Replay", "true")
			WriteJSON(w, http.StatusOK, jobStatus(st))
			return
		}
		WriteJSON(w, http.StatusAccepted, jobStatus(st))
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		sts, err := svc.Jobs()
		if err != nil {
			writeServiceErr(svc, w, err)
			return
		}
		out := make([]JobStatus, 0, len(sts))
		for _, st := range sts {
			out = append(out, jobStatus(st))
		}
		WriteJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		st, err := svc.Job(id)
		if err != nil {
			writeServiceErr(svc, w, err)
			return
		}
		WriteJSON(w, http.StatusOK, jobStatus(st))
	})
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		cs, err := svc.Cluster()
		if err != nil {
			writeServiceErr(svc, w, err)
			return
		}
		WriteJSON(w, http.StatusOK, clusterStatus(cs))
	})
	mux.HandleFunc("POST /v1/cluster/update", func(w http.ResponseWriter, r *http.Request) {
		var req UpdateRequest
		if !decodeBody(w, r, &req) {
			return
		}
		ups := make([]engine.SiteUpdate, 0, len(req.Sites))
		for _, u := range req.Sites {
			ups = append(ups, u.toEngine())
		}
		replaced, err := svc.UpdateCluster(ups)
		if err != nil {
			writeServiceErr(svc, w, err)
			return
		}
		WriteJSON(w, http.StatusOK, UpdateResponse{StagesReplaced: replaced})
	})
	metrics := func(contentType string, render func(*obs.Registry, io.Writer)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			reg, err := svc.MetricsRegistry()
			if err != nil {
				writeServiceErr(svc, w, err)
				return
			}
			w.Header().Set("Content-Type", contentType)
			render(reg, w)
		}
	}
	mux.HandleFunc("GET /metrics", metrics("text/plain; version=0.0.4; charset=utf-8",
		func(reg *obs.Registry, w io.Writer) { reg.WritePrometheus(w, "tetrium") }))
	mux.HandleFunc("GET /metrics.txt", metrics("text/plain; charset=utf-8",
		func(reg *obs.Registry, w io.Writer) { reg.WriteText(w) }))
	mux.HandleFunc("GET /debug/events", func(w http.ResponseWriter, r *http.Request) {
		// Cursor pagination over the bounded ring: pollers pass the
		// Tetrium-Events-Next value of the previous response as ?since;
		// Tetrium-Events-Missed counts requested events already discarded
		// (the poller fell behind).
		write, next, missed, err := svc.EventsAfter(r.URL.Query().Get("since"))
		if err != nil {
			writeServiceErr(svc, w, err)
			return
		}
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		w.Header().Set("Tetrium-Events-Next", next)
		w.Header().Set("Tetrium-Events-Missed", strconv.FormatInt(missed, 10))
		write(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness: an event loop answers at all. Readiness (accepting
		// useful traffic) is /readyz's job.
		if !svc.Healthy() {
			writeServiceErr(svc, w, engine.ErrStopped)
			return
		}
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness: not ready while replaying the journal after a
		// restart, while draining toward shutdown, or once stopped.
		// Orchestrators route traffic elsewhere without killing the pod.
		ok, reason := svc.Ready()
		if !ok {
			WriteJSON(w, http.StatusServiceUnavailable, errorBody{Error: reason})
			return
		}
		w.Write([]byte(reason + "\n"))
	})
	svc.Mount(mux)
	return mux
}

// bufPool holds the buffers a submit's body is read into and a JSON
// response is rendered into. A buffer goes back only once nothing
// refers to its bytes, and grows no larger than the body bound or the
// largest response.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readJob reads a POST /v1/jobs body of at most MaxBodyBytes into a
// pooled buffer and decodes it once, with decodeJobSpec. Whatever that
// declines, and a body that could not be read to its end, goes to
// encoding/json exactly as decodeBody would have read it — the same
// bytes, then the same read error — so every answer, unknown-field
// tolerance and ignored trailing data included, stays encoding/json's.
// The job refers to nothing in the buffer.
func readJob(w http.ResponseWriter, r *http.Request) (*workload.Job, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	if n := r.ContentLength; n > 0 {
		// The cap makes a lying header buy nothing; the headroom is what
		// ReadFrom wants free to see EOF without growing.
		buf.Grow(int(min(n, MaxBodyBytes)) + bytes.MinRead)
	}
	_, readErr := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	var spec JobSpec
	if readErr != nil || !decodeJobSpec(buf.Bytes(), &spec) {
		spec = JobSpec{}
		var src io.Reader = buf
		if readErr != nil {
			src = io.MultiReader(buf, errReader{readErr})
		}
		if err := json.NewDecoder(src).Decode(&spec); err != nil {
			return nil, err
		}
	}
	return spec.ToWorkload()
}

// errReader fails every Read with its error.
type errReader struct{ error }

func (e errReader) Read([]byte) (int, error) { return 0, e.error }

// decodeBody reads one JSON request body of at most MaxBodyBytes into
// v, answering 413 or 400 itself when it cannot.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	if err != nil {
		writeBodyErr(w, err)
	}
	return err == nil
}

// writeBodyErr answers a body that could not be read or decoded: 413
// when it ran past MaxBodyBytes, else 400.
func writeBodyErr(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeErr(w, code, err)
}

// WriteJSON is the one JSON response writer; exported for the routes a
// backend mounts itself. The value is encoded before the status line is
// sent, so one that does not encode (a non-finite float) answers 500
// with the usual error body, not the intended status and no body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		code = http.StatusInternalServerError
		json.NewEncoder(buf).Encode(errorBody{Error: err.Error()}) // a string always encodes
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}

func writeErr(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, errorBody{Error: err.Error()})
}

// writeServiceErr maps the service's sentinels to HTTP semantics on
// every route: backpressure is 429 with a Retry-After hint computed
// from queue overflow and the recent drain rate; drain/stop, a request
// aborted by a contained loop panic and a fleet with no live shard
// (which unwraps to ErrStopped) are 503 — the caller did nothing wrong
// — with, under supervision, a Retry-After from the shortest scheduled
// restart; unknown IDs 404; anything else a validation 400.
func writeServiceErr(svc Service, w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, engine.ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(svc.RetryAfter()))
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, engine.ErrDraining), errors.Is(err, engine.ErrStopped),
		errors.Is(err, engine.ErrPanicked):
		if secs, ok := svc.UnhealthyRetryAfter(); ok {
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		writeErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, engine.ErrNotFound):
		writeErr(w, http.StatusNotFound, err)
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
}
