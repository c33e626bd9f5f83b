package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"tetrium/internal/cluster"
	"tetrium/internal/place"
	"tetrium/internal/sched"
	"tetrium/internal/workload"
)

// BenchmarkEngineSubmit measures the submit-to-terminal cost of the
// serving path with instant stage completion (TimeScale 0): admission,
// placement solves, SRPT ordering, dispatch, and completion
// bookkeeping. Submissions rotate through a small set of distinct jobs,
// the loadgen-like steady state the placement memo cache targets.
func BenchmarkEngineSubmit(b *testing.B) {
	cl := cluster.EC2EightRegions()
	e, err := New(Config{
		Cluster:    cl,
		Placer:     place.Tetrium{},
		Policy:     sched.SRPT,
		Rho:        1,
		Eps:        1,
		MaxPending: 1 << 30,
	})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer e.Close()

	jobs := workload.Generate(workload.BigData(cl.N(), 8, 21))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			_, err := e.Submit(jobs[i%len(jobs)])
			if errors.Is(err, ErrQueueFull) {
				time.Sleep(time.Millisecond)
				continue
			}
			if err != nil {
				b.Fatalf("Submit: %v", err)
			}
			break
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		b.Fatalf("Drain: %v", err)
	}
}

// BenchmarkEngineBurstSubmit: concurrent submitters slam the admission
// path (cache disabled, instant completion), so the cost measured is
// admission + placement solve + dispatch under contention.
func BenchmarkEngineBurstSubmit(b *testing.B) {
	cl := cluster.EC2EightRegions()
	cfg := Config{
		Cluster:        cl,
		Placer:         place.Tetrium{},
		Policy:         sched.SRPT,
		Rho:            1,
		Eps:            1,
		MaxPending:     1 << 30,
		PlaceCacheSize: -1,
	}
	e, err := New(cfg)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer e.Close()

	jobs := workload.Generate(workload.BigData(cl.N(), 16, 21))
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			j := jobs[int(next.Add(1))%len(jobs)]
			for {
				_, err := e.Submit(j)
				if errors.Is(err, ErrQueueFull) {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					b.Errorf("Submit: %v", err)
					return
				}
				break
			}
		}
	})
	b.StopTimer()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		b.Fatalf("Drain: %v", err)
	}
}
