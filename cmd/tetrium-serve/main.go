// Command tetrium-serve runs the online scheduling service: a daemon
// that accepts analytics jobs over HTTP/JSON and schedules them with the
// paper's pipeline (LP placement §3, SRPT ordering §4.1, WAN budget
// §4.3, ε-fairness §4.4, k-site-limited re-placement on cluster updates
// §4.2).
//
//	tetrium-serve -addr :8080 -cluster ec2-8 -scheduler tetrium
//
//	POST /v1/jobs            submit a job (trace-file stage schema)
//	GET  /v1/jobs            list jobs
//	GET  /v1/jobs/{id}       job detail
//	GET  /v1/cluster         live capacity view
//	POST /v1/cluster/update  §4.2 dynamics: {"sites":[{"site":0,"frac":0.4}]}
//	GET  /metrics            Prometheus text format
//	GET  /metrics.txt        native registry dump
//	GET  /debug/events       JSONL event stream (?since=<cursor> pagination)
//	GET  /v1/analytics/...   fleet analytics reports (with -analytics)
//	GET  /v1/federation      per-shard state (with -shards N > 1)
//	GET  /healthz            liveness
//	GET  /readyz             readiness (503 while replaying the journal or draining)
//
// SIGINT/SIGTERM drains gracefully: admission stops, in-flight jobs
// finish (up to -drain-timeout), then the server exits.
//
// Failure domain: -fault-spec injects deterministic site crashes, link
// degradation, stragglers, and solver stalls; -journal makes accepted
// jobs durable across a crash (kill -9 loses no admitted job);
// -speculate duplicates straggling stages; -solve-deadline bounds each
// placement solve before the In-Place stopgap takes over.
//
// Sharded mode (-shards N with N > 1) runs N shared-nothing engine
// shards behind the federation router: the same routes, aggregated
// /v1/cluster and /metrics, merged /debug/events behind a per-shard
// cursor vector. -shards 1 (the default) is one plain engine. With
// -journal each shard journals to <path>.shard<i>:
//
//	tetrium-serve -addr :8080 -shards 4 -journal /var/lib/tetrium/j
//
// -supervise (with -shards > 1) turns the router self-healing: each
// shard is heartbeat-probed; a wedged, panicked, or stopped shard is
// restarted automatically from its journal with jittered exponential
// backoff, and a shard that keeps flapping is parked by a circuit
// breaker until an operator restarts it. POST /v1/jobs accepts an
// Idempotency-Key header making submit retries exactly-once across
// shard crashes.
//
// Whatever the backend, the binary has one run path: both are an
// api.Service, served by the one handler, drained and closed the same
// way. -smoke takes that path on an ephemeral port and, instead of
// waiting for a signal, drives a self-checking round trip over the
// wire (submit → §4.2 update → poll → metrics → events → drain; on a
// fleet also: kill and restore one shard mid-flight) and exits
// non-zero on any deviation:
//
//	tetrium-serve -smoke [-shards 2 -journal /tmp/j]
//
// Load generation is not this binary's job: bash benchmark/run.sh is
// the one load generator and the only source of speed claims.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tetrium"
	"tetrium/internal/cluster"
	"tetrium/internal/engine/api"
)

// flags is the parsed command line: the engine options the flags bind
// directly, plus what only the binary needs.
type flags struct {
	opts tetrium.EngineOptions

	addr, cluster, scheduler string

	seed      int64
	shards    int
	drainWait time.Duration
	smoke     bool
}

// registerFlags is the one place the server's flag surface is defined
// (TestFlagSurface pins it).
func registerFlags(fs *flag.FlagSet) *flags {
	f := &flags{}
	o := &f.opts
	fs.StringVar(&f.addr, "addr", ":8080", "listen address")
	fs.StringVar(&f.cluster, "cluster", "ec2-8", "cluster preset: ec2-8|ec2-30|sim-50|paper|osp")
	fs.Int64Var(&f.seed, "seed", 1, "cluster preset seed")
	fs.StringVar(&f.scheduler, "scheduler", "tetrium", "tetrium|iridium|in-place|centralized|tetris")
	fs.Float64Var(&o.Rho, "rho", 1, "WAN budget knob (0..1)")
	fs.Float64Var(&o.Eps, "eps", 1, "fairness knob (0..1)")
	fs.IntVar(&o.UpdateK, "update-k", 0, "sites updatable per placement on a cluster change (0 = all)")
	fs.IntVar(&o.MaxPending, "max-pending", 1024, "admission bound; beyond it submissions get 429")
	fs.Float64Var(&o.TimeScale, "time-scale", 1e-3, "estimated stage seconds → wall seconds (<= 0: instant)")
	fs.DurationVar(&f.drainWait, "drain-timeout", 30*time.Second, "graceful-drain bound on shutdown")
	fs.BoolVar(&o.Check, "check", false, "certify every LP solve")

	fs.StringVar(&o.FaultSpec, "fault-spec", "", "fault injection spec, e.g. \"crash@10s:site=1,dur=30s;straggle:p=0.05,x=4\"")
	fs.Int64Var(&o.FaultSeed, "fault-seed", 1, "fault injector seed (straggler lottery)")
	fs.StringVar(&o.JournalPath, "journal", "", "durable-restart journal path (empty: no journal)")
	fs.BoolVar(&o.Speculate, "speculate", false, "launch duplicates of straggling stages; first finish wins")
	fs.DurationVar(&o.SolveDeadline, "solve-deadline", 0, "per-stage LP solve bound before the In-Place stopgap (0: none)")

	fs.BoolVar(&o.Analytics, "analytics", false, "enable the fleet-analytics store and /v1/analytics endpoints")
	fs.StringVar(&o.AnalyticsSnapshotPath, "analytics-snap", "", "fleet store snapshot path (empty: no snapshots)")

	fs.IntVar(&f.shards, "shards", 1, "engine shards behind the federation router (1 = single engine)")
	fs.BoolVar(&o.Supervise, "supervise", false, "with -shards > 1: self-healing supervisor (heartbeat probes, auto-restart with backoff, flap breaker)")

	fs.BoolVar(&f.smoke, "smoke", false, "serve on an ephemeral port, run the self-checking round trip, and exit")
	return f
}

func main() {
	f := registerFlags(flag.CommandLine)
	flag.Parse()

	sched, err := tetrium.ParseScheduler(f.scheduler)
	if err != nil {
		die(2, err)
	}
	cl, err := cluster.Preset(f.cluster, f.seed)
	if err != nil {
		die(2, err)
	}
	o := f.opts
	o.Cluster, o.Scheduler = cl, sched
	o.RhoSet, o.EpsSet = true, true
	if o.TimeScale <= 0 {
		o.TimeScale = -1 // NewEngine: negative → instant completion
	}

	// -shards 1 is an Engine, not a federation of one: only an engine
	// hosts the analytics store, and it is the configuration the service
	// benchmark measures.
	var svc api.Service
	what := fmt.Sprintf("cluster %s, %d sites, scheduler %s", f.cluster, cl.N(), sched)
	if f.shards > 1 {
		fed, err := tetrium.NewFederation(o, f.shards, "hash")
		if err != nil {
			die(1, err)
		}
		svc = fed
		what += fmt.Sprintf(", %d shards", f.shards)
	} else {
		eng, err := tetrium.NewEngine(o)
		if err != nil {
			die(1, err)
		}
		svc = api.EngineService(eng)
	}

	addr, until := "127.0.0.1:0", func(base string) error { return runSmoke(svc, base) }
	if !f.smoke {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		addr, until = f.addr, func(string) error { <-ctx.Done(); return nil }
	}
	if err := serve(svc, addr, what, f.drainWait, until); err != nil {
		die(1, err)
	}
	if f.smoke {
		fmt.Println("smoke: ok")
	}
}

func die(code int, err error) {
	fmt.Fprintln(os.Stderr, "tetrium-serve:", err)
	os.Exit(code)
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so an idle or trickling client cannot hold one open
// forever.
const readHeaderTimeout = 10 * time.Second

// serve is the binary's one server lifecycle: listen on addr, serve
// svc, wait for until (handed the base URL) to return, then drain
// admitted work within drainWait, shut the listener down and close svc.
func serve(svc api.Service, addr, what string, drainWait time.Duration, until func(base string) error) error {
	defer svc.Close()
	// Listen before serving so ":0" works (the smoke and the tests bind
	// an ephemeral port; tests parse the actual address from the banner).
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: api.Handler(svc), ReadHeaderTimeout: readHeaderTimeout}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	fmt.Printf("tetrium-serve: listening on %s (%s)\n", ln.Addr(), what)

	waited := make(chan error, 1)
	go func() { waited <- until("http://" + ln.Addr().String()) }()
	select {
	case err := <-served:
		return err
	case err := <-waited:
		if err != nil {
			srv.Close()
			return err
		}
	}

	fmt.Println("tetrium-serve: draining...")
	dctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := svc.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "tetrium-serve: drain:", err)
	}
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "tetrium-serve: shutdown:", err)
	}
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("tetrium-serve: stopped")
	return nil
}
