package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// opResult is what the generator saw of one request. Offsets are from
// the start of the pass the request belongs to.
type opResult struct {
	kind   opKind
	job    int // submits: index into the pass's (or pool's) jobs
	due    time.Duration
	sent   time.Duration
	done   time.Duration
	status int // HTTP status; 0 for a transport error or an unsent op
	// queued marks a request whose due time had already passed when a
	// sender picked it up: every sender was still waiting on the
	// service. Its lateness is the service's doing and is charged to its
	// latency; the lateness of the others is the generator's own.
	queued   bool
	id       int // submits: job ID from the 202 body
	replaced int // updates: stages_replaced from the 200 body
}

// origin is the instant a request's latency is timed from: its due
// time when it had to queue behind the service, and the instant its
// idle sender woke for it otherwise — a late timer is the generator's
// lateness (reported as loadgen.lag_ms_p99), not the service's.
func (r opResult) origin() time.Duration {
	if r.queued {
		return r.due
	}
	return r.sent
}

func (r opResult) ok() bool {
	if r.kind == opSubmit {
		return r.status == http.StatusAccepted
	}
	return r.status == http.StatusOK
}

// recentIDs is a lock-free ring of the latest acked job IDs; reads pick
// their target from it, as a client polling its own submissions would.
type recentIDs struct {
	n    atomic.Int64
	ring [256]atomic.Int64
}

func (r *recentIDs) add(id int) {
	i := r.n.Add(1) - 1
	r.ring[i%int64(len(r.ring))].Store(int64(id))
}

func (r *recentIDs) pick(choice uint32) (int, bool) {
	n := r.n.Load()
	if n == 0 {
		return 0, false
	}
	size := n
	if size > int64(len(r.ring)) {
		size = int64(len(r.ring))
	}
	i := (n - 1 - int64(choice)%size) % int64(len(r.ring))
	return int(r.ring[i].Load()), true
}

// generator is the one load source: at most `senders` goroutines, each
// with its own single keep-alive connection.
type generator struct {
	svc     *service
	clients []*http.Client
	recent  recentIDs
	// idem sends each submit's name as its Idempotency-Key (the sharded
	// service's exactly-once contract); tagged sends the op id header
	// the tracing middleware keys its spans by.
	idem   bool
	tagged atomic.Bool
}

func newGenerator(svc *service, senders int) *generator {
	g := &generator{svc: svc, idem: svc.fed != nil}
	for i := 0; i < senders; i++ {
		g.clients = append(g.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// sender is one goroutine's reusable request state.
type sender struct {
	g      *generator
	client *http.Client
	buf    bytes.Buffer
}

func (s *sender) do(method, path, opID, idemKey string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.g.svc.url+path, rd)
	if err != nil {
		return 0, nil
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	if s.g.tagged.Load() {
		req.Header.Set(opIDHeader, opID)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil
	}
	s.buf.Reset()
	_, err = s.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, s.buf.Bytes()
}

// submit posts one job and returns the status and the acked job ID.
func (s *sender) submit(in jobInput) (int, int) {
	key := ""
	if s.g.idem {
		key = in.name
	}
	status, body := s.do("POST", "/v1/jobs", in.name, key, in.body)
	if status != http.StatusAccepted {
		return status, -1
	}
	id, ok := jsonIntField(body, `"id":`)
	if !ok {
		return 0, -1
	}
	s.g.recent.add(id)
	return status, id
}

// jsonIntField reads the integer that follows the first occurrence of
// key — enough for the two response fields the generator needs without
// paying a full decode per request.
func jsonIntField(body []byte, key string) (int, bool) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	j := i + len(key)
	k := j
	for k < len(body) && (body[k] == '-' || (body[k] >= '0' && body[k] <= '9')) {
		k++
	}
	v, err := strconv.Atoi(string(body[j:k]))
	return v, err == nil
}

func (s *sender) exec(p *pass, i int, o op, res *opResult) {
	switch o.kind {
	case opSubmit:
		res.job = o.job
		res.status, res.id = s.submit(p.jobs[o.job])
	case opRead:
		id, ok := s.g.recent.pick(o.pick)
		if !ok {
			return
		}
		res.status, _ = s.do("GET", "/v1/jobs/"+strconv.Itoa(id), fmt.Sprintf("read-%d", i), "", nil)
	case opShrink, opRestore:
		var body []byte
		res.status, body = s.do("POST", "/v1/cluster/update", fmt.Sprintf("%s-%d", o.kind, i), "", o.body)
		if res.status == http.StatusOK {
			res.replaced, _ = jsonIntField(body, `"stages_replaced":`)
		}
	}
}

// openGrace is how long past its window an open-loop pass may run
// before the requests still unsent are written off as failed.
const openGrace = 5 * time.Second

// runOpen replays one open-loop schedule. Every request waits for its
// due time; a sender that is still busy sends late, and the lateness is
// recorded (sent − due) while the latency stays timed from due.
func (g *generator) runOpen(p *pass) (time.Time, []opResult) {
	results := make([]opResult, len(p.ops))
	var next atomic.Int64
	start := time.Now()
	giveUp := p.window + openGrace
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			s := &sender{g: g, client: c}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.ops) {
					return
				}
				o := p.ops[i]
				res := &results[i]
				res.kind, res.due = o.kind, o.due
				if wait := o.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				} else {
					res.queued = true
				}
				res.sent = time.Since(start)
				if res.sent > giveUp {
					res.done = res.sent
					continue
				}
				s.exec(p, i, o, res)
				res.done = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	return start, results
}

// runClosed is the closed-loop segment: every client posts the next
// pool job as soon as its previous 202 arrives, until the time is up or
// the pool is empty.
func (g *generator) runClosed(pool []jobInput, dur time.Duration) (time.Time, []opResult) {
	results := make([]opResult, len(pool))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			s := &sender{g: g, client: c}
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				if i >= len(pool) {
					return
				}
				res := &results[i]
				res.kind, res.job = opSubmit, i
				res.sent = time.Since(start)
				res.due = res.sent
				res.status, res.id = s.submit(pool[i])
				res.done = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	n := int(next.Load())
	if n > len(pool) {
		n = len(pool)
	}
	return start, results[:n]
}

// runDirect replays a submit-only schedule as direct calls (no HTTP)
// from the same senders at the same arrival times, and returns each
// call's own duration in microseconds.
func (g *generator) runDirect(p *pass, call func(i int, in jobInput) error) ([]float64, int) {
	durs := make([]float64, len(p.ops))
	var next, failed atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for range g.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.ops) {
					return
				}
				o := p.ops[i]
				if wait := o.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				t0 := time.Now()
				if err := call(i, p.jobs[o.job]); err != nil {
					failed.Add(1)
				}
				durs[i] = float64(time.Since(t0)) / float64(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	return durs, int(failed.Load())
}
