package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tetrium"
	"tetrium/internal/obs"
)

// collector reads the service from outside while a pass runs: it
// samples the live cluster view (active jobs, free slots), optionally
// times Engine.Probe round trips, and drains each shard's event buffer
// through its cursor so nothing is lost to the default EventCap.
type collector struct {
	svc    *service
	probe  bool
	stop   chan struct{}
	done   chan struct{}
	stopMu sync.Once
	// sampling is on during the timed window only; events keep being
	// drained until finish so a long drain cannot overflow a ring.
	sampling atomic.Bool

	// shards and cursors are fixed at start: a shard the supervisor
	// replaced mid-run answers ErrStopped here, which fails the run — as
	// an automatic restart should.
	shards  []*tetrium.Engine
	cursors []int64

	active    []float64 // active jobs excluding residents, per sample
	freeRatio []float64 // free slots ÷ capacity, per sample
	probeUs   []float64

	ev  eventStats
	err error
}

// eventStats is what the harness keeps of the event stream.
type eventStats struct {
	missed int64 // events that fell out of a ring before being read

	badPlacements []string  // decisions whose task counts do not add up
	solveNs       []float64 // every LP-backed decision's SolveNanos
	// firstSolveNs is the SolveNanos of each job's first placement
	// decision (0 for a cache hit), keyed by service-wide job ID.
	firstSolveNs map[int]int64

	schedInstances int
	schedWallNs    int64
}

const (
	sampleEvery = 50 * time.Millisecond
	probeEvery  = 10 * time.Millisecond
	drainEvery  = 250 * time.Millisecond
)

// startCollector begins sampling. Events emitted before the call are
// skipped: the cursors start at each shard's current end.
func startCollector(svc *service, probe bool) (*collector, error) {
	c := &collector{
		svc: svc, probe: probe, shards: svc.shards(),
		stop: make(chan struct{}), done: make(chan struct{}),
		ev: eventStats{firstSolveNs: make(map[int]int64)},
	}
	for _, e := range c.shards {
		_, next, _, err := e.EventsSince(math.MaxInt64)
		if err != nil {
			return nil, err
		}
		c.cursors = append(c.cursors, next)
	}
	c.sampling.Store(true)
	go c.run()
	return c, nil
}

func (c *collector) run() {
	defer close(c.done)
	tick := sampleEvery
	if c.probe {
		tick = probeEvery
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	var sinceSample, sinceDrain time.Duration
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		sinceDrain += tick
		if sinceDrain >= drainEvery {
			sinceDrain = 0
			c.drainEvents()
		}
		if !c.sampling.Load() {
			continue
		}
		if c.probe {
			t0 := time.Now()
			if err := c.shards[0].Probe(time.Second); err == nil {
				c.probeUs = append(c.probeUs, float64(time.Since(t0))/float64(time.Microsecond))
			}
		}
		sinceSample += tick
		if sinceSample >= sampleEvery {
			sinceSample = 0
			c.sampleCluster()
		}
	}
}

func (c *collector) sampleCluster() {
	cs, err := c.svc.clusterStatus()
	if err != nil {
		c.err = err
		return
	}
	free, total := 0, 0
	for _, s := range cs.Sites {
		total += s.Slots
		if s.FreeSlots > 0 {
			free += s.FreeSlots
		}
	}
	c.active = append(c.active, float64(cs.ActiveJobs-c.svc.w.residents))
	if total > 0 {
		c.freeRatio = append(c.freeRatio, float64(free)/float64(total))
	}
}

// endWindow stops the cluster and probe sampling at the end of the
// timed window.
func (c *collector) endWindow() { c.sampling.Store(false) }

// finish stops the collector and drains the events emitted up to now.
func (c *collector) finish() error {
	c.stopMu.Do(func() { close(c.stop) })
	<-c.done
	c.drainEvents()
	return c.err
}

func (c *collector) drainEvents() {
	for i, e := range c.shards {
		evs, next, missed, err := e.EventsSince(c.cursors[i])
		if err != nil {
			c.err = err
			return
		}
		c.cursors[i] = next
		c.ev.missed += missed
		for _, ev := range evs {
			c.ev.note(ev, i, len(c.shards))
		}
	}
}

func (s *eventStats) note(ev obs.Event, shard, shards int) {
	switch e := ev.(type) {
	case obs.Placement:
		sum := 0
		for _, t := range e.TasksBySite {
			sum += t
		}
		if sum != e.Pending {
			s.badPlacements = append(s.badPlacements,
				fmt.Sprintf("shard %d job %d stage %d: tasks_by_site sums to %d, pending %d", shard, e.Job, e.Stage, sum, e.Pending))
		}
		if e.SolveNanos > 0 {
			s.solveNs = append(s.solveNs, float64(e.SolveNanos))
		}
		if !e.Restamp {
			// Service-wide ID of a shard-local one, as the router forms it.
			id := e.Job*shards + shard
			if _, seen := s.firstSolveNs[id]; !seen {
				s.firstSolveNs[id] = e.SolveNanos
			}
		}
	case obs.SchedInstance:
		s.schedInstances++
		s.schedWallNs += e.WallNanos
	}
}

// counterDelta reads how far a counter moved between two registry
// snapshots.
func counterDelta(before, after *obs.Registry, name string) float64 {
	return after.Counter(name).Value() - before.Counter(name).Value()
}

// histDelta returns the count and mean of the observations a histogram
// gained between two snapshots.
func histDelta(before, after *obs.Registry, name string) (int, float64) {
	// The layout arguments only matter if the histogram is absent.
	hb := before.Histogram(name, 1, 2, 1)
	ha := after.Histogram(name, 1, 2, 1)
	cnt := ha.Count() - hb.Count()
	if cnt <= 0 {
		return 0, 0
	}
	return cnt, (ha.Sum() - hb.Sum()) / float64(cnt)
}

// jobsByName indexes a Jobs() listing and reports names that occur more
// than once (an exactly-once violation).
func jobsByName(sts []tetrium.EngineJobStatus) (map[string]tetrium.EngineJobStatus, []string) {
	out := make(map[string]tetrium.EngineJobStatus, len(sts))
	var dups []string
	for _, st := range sts {
		if _, ok := out[st.Name]; ok {
			dups = append(dups, st.Name)
		}
		out[st.Name] = st
	}
	return out, dups
}
