package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tetrium"
	"tetrium/internal/obs"
	"tetrium/internal/workload"
)

// service is the real scheduling service started in-process through
// the public facade and served on a loopback listener. The engine
// handles stay reachable so results can be read back from outside
// (Jobs, Events, MetricsSnapshot) on the generator's own clock.
type service struct {
	w   *workloadSpec
	eng *tetrium.Engine     // single-engine workloads
	fed *tetrium.Federation // sharded workloads
	url string

	srv      *http.Server
	serveErr chan error
	conns    atomic.Int64 // currently open client connections
	maxConns atomic.Int64

	spans *handlerSpans // non-nil when the handler middleware is on
}

// handlerSpans is the benchmark's own middleware record: one span per
// request around the service's handler, keyed by the client's op id.
type handlerSpans struct {
	on    atomic.Bool // off: the middleware is one atomic load
	mu    sync.Mutex
	spans []handlerSpan
}

func (h *handlerSpans) take() []handlerSpan {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.spans
	h.spans = nil
	return out
}

type handlerSpan struct {
	id         string
	start, end time.Time
}

const opIDHeader = "X-Bench-Op"

// startService starts the workload's service shape. dir holds the
// per-shard journals of a sharded workload. traced wraps the handler in
// the span-recording middleware.
func startService(w *workloadSpec, cl *tetrium.Cluster, dir string, traced bool) (*service, error) {
	s := &service{w: w, serveErr: make(chan error, 1)}
	opts := tetrium.EngineOptions{
		Cluster:   cl,
		Scheduler: tetrium.SchedulerTetrium,
		TimeScale: w.timeScale,
	}
	var h http.Handler
	if w.shards > 1 {
		opts.JournalPath = filepath.Join(dir, "journal")
		opts.Supervise = true
		fed, err := tetrium.NewFederation(opts, w.shards, "hash")
		if err != nil {
			return nil, err
		}
		s.fed = fed
		h = tetrium.FederationHandler(fed)
	} else {
		// Residents count against MaxPending; leave the default headroom
		// for the traffic itself.
		opts.MaxPending = 1024 + w.residents
		eng, err := tetrium.NewEngine(opts)
		if err != nil {
			return nil, err
		}
		s.eng = eng
		h = tetrium.EngineHandler(eng)
	}
	if traced {
		s.spans = &handlerSpans{}
		inner := h
		h = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if !s.spans.on.Load() {
				inner.ServeHTTP(rw, r)
				return
			}
			t0 := time.Now()
			inner.ServeHTTP(rw, r)
			t1 := time.Now()
			if id := r.Header.Get(opIDHeader); id != "" {
				s.spans.mu.Lock()
				s.spans.spans = append(s.spans.spans, handlerSpan{id: id, start: t0, end: t1})
				s.spans.mu.Unlock()
			}
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeEngines()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{
		Handler: h,
		ConnState: func(_ net.Conn, st http.ConnState) {
			switch st {
			case http.StateNew:
				n := s.conns.Add(1)
				for {
					m := s.maxConns.Load()
					if n <= m || s.maxConns.CompareAndSwap(m, n) {
						break
					}
				}
			case http.StateClosed, http.StateHijacked:
				s.conns.Add(-1)
			}
		},
	}
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	return s, nil
}

// shards returns the engines behind the service, in shard order.
func (s *service) shards() []*tetrium.Engine {
	if s.fed == nil {
		return []*tetrium.Engine{s.eng}
	}
	out := make([]*tetrium.Engine, s.fed.NumShards())
	for i := range out {
		out[i] = s.fed.Shard(i)
	}
	return out
}

func (s *service) submit(job *workload.Job, idemKey string) (tetrium.EngineJobStatus, error) {
	if s.fed != nil {
		st, _, err := s.fed.SubmitIdem(job, idemKey)
		return st, err
	}
	return s.eng.Submit(job)
}

func (s *service) jobs() ([]tetrium.EngineJobStatus, error) {
	if s.fed != nil {
		return s.fed.Jobs()
	}
	return s.eng.Jobs()
}

func (s *service) clusterStatus() (tetrium.EngineClusterStatus, error) {
	if s.fed != nil {
		return s.fed.Cluster()
	}
	return s.eng.Cluster()
}

func (s *service) registry() (*obs.Registry, error) {
	if s.fed != nil {
		return s.fed.MetricsRegistry()
	}
	return s.eng.MetricsSnapshot()
}

// waitIdle polls until only the parked residents remain active.
func (s *service) waitIdle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		cs, err := s.clusterStatus()
		if err != nil {
			return err
		}
		if cs.ActiveJobs <= s.w.residents {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d jobs still active after %v", cs.ActiveJobs-s.w.residents, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *service) closeEngines() {
	if s.fed != nil {
		s.fed.Close()
	}
	if s.eng != nil {
		s.eng.Close()
	}
}

// close stops the listener, waits for the server goroutine, and closes
// the engines gracefully. It may be called twice.
func (s *service) close() error {
	var err error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err = s.srv.Shutdown(ctx)
		if serr := <-s.serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		s.srv = nil
	}
	s.closeEngines()
	return err
}
