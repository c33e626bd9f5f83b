package engine

import (
	"sync"

	"tetrium/internal/journal"
	"tetrium/internal/obs"
)

// The journal writer: a journaled engine's one goroutine that calls its
// journal.Journal after New. The loop decides each record — an admit,
// a job's first placement, a completion, the snapshot after a recovered
// panic — and queues it here in that order; it never encodes, writes,
// snapshots or fsyncs anything itself, so no loop turn waits on the
// disk.
//
// What still waits is the submitter: SubmitIdem returns (and the API
// answers 202) only once the job's admit record has been written, as
// before. The loop may place the job meanwhile, but launches none of
// its stages until the record is written (js.admit is the gate): a
// failed admit write fails the submit and withdraws a job that has run
// nothing.

// journalRec is one queued record: write puts it on disk from values
// copied out of loop state, so the writer reads nothing the loop
// writes (an admit's spec is the submitted job, which no one mutates
// after Submit).
type journalRec struct {
	id     int // the job; -1 for the snapshot
	write  func(*journal.Journal) error
	ticket *admitTicket // an admit's; nil for every other record
}

// snapshotRec asks the writer for a snapshot after every record queued
// before it.
var snapshotRec = journalRec{id: -1, write: (*journal.Journal).Snapshot}

// admitTicket is one admission's answer: err is final once done is
// closed. js and idem are loop-only: the writer hands them back to the
// loop and never reads them.
type admitTicket struct {
	js   *jobState
	idem string
	done chan struct{}
	err  error
}

type journalWriter struct {
	e *Engine
	j *journal.Journal

	mu     sync.Mutex
	queue  []journalRec
	stop   bool
	final  bool          // stop with the final snapshot (Close), not abandon (Kill)
	wake   chan struct{} // one pending wake-up covers any number of queued records
	exited chan struct{}

	failed map[int]bool // writer-only: jobs whose admit record failed
}

func newJournalWriter(e *Engine, j *journal.Journal) *journalWriter {
	w := &journalWriter{
		e: e, j: j,
		wake:   make(chan struct{}, 1),
		exited: make(chan struct{}),
		failed: make(map[int]bool),
	}
	go w.run()
	return w
}

// enqueue hands the writer one record. It never blocks on the disk:
// the queue is unbounded, and the lock is held only to append.
func (w *journalWriter) enqueue(r journalRec) {
	w.mu.Lock()
	w.queue = append(w.queue, r)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// close writes everything queued, then snapshots and closes the
// journal (final) or abandons it, and returns once the writer has
// exited. Called once the loop has stopped, so nothing more is queued.
func (w *journalWriter) close(final bool) {
	w.mu.Lock()
	w.stop, w.final = true, final
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
	<-w.exited
}

func (w *journalWriter) run() {
	defer close(w.exited)
	var batch []journalRec
	for {
		w.mu.Lock()
		batch, w.queue = w.queue, batch[:0]
		stop, final := w.stop, w.final
		w.mu.Unlock()
		if len(batch) == 0 {
			if stop {
				if final {
					w.j.Close()
				} else {
					w.j.Abandon()
				}
				return
			}
			<-w.wake
			continue
		}
		w.write(batch)
		clear(batch)
	}
}

// write puts one batch on disk in queue order. A failed admit is
// withdrawn on the loop before its submitter hears the error. One loop
// turn then opens the launch gate of every admit the batch wrote and
// counts the other failures, and only then do those admits' submitters
// hear back: a goroutine readied last runs first, so they go ahead of
// that loop turn.
func (w *journalWriter) write(batch []journalRec) {
	var written []*admitTicket
	errs := 0
	for i := range batch {
		r := &batch[i]
		if r.ticket == nil && w.failed[r.id] {
			continue // the job was withdrawn: its admit never reached the file
		}
		err := r.write(w.j)
		switch t := r.ticket; {
		case t == nil:
			if err != nil {
				errs++
			}
		case err != nil:
			w.failed[r.id] = true
			t.err = err
			w.e.inject(func() { w.e.st.withdraw(t) })
			close(t.done)
		default:
			written = append(written, t)
		}
	}
	if len(written) > 0 || errs > 0 {
		w.e.inject(func() { w.e.st.admitsWritten(written, errs) })
	}
	for _, t := range written {
		close(t.done)
	}
}

// admitsWritten opens the launch gate of jobs whose admit records are
// on disk and counts the batch's failed place, done and snapshot
// writes. Loop-only.
func (s *state) admitsWritten(written []*admitTicket, errs int) {
	for _, t := range written {
		t.js.admit = nil
	}
	if errs > 0 {
		s.rec.Registry().Counter("engine.journal_errors").Add(float64(errs))
	}
	if len(written) > 0 {
		s.scheduleSoon()
	}
}

// withdraw takes back a job whose admit record failed to write. The
// launch gate kept every stage from running, so no slot, timer or done
// record refers to it; solves still in flight find it terminal and
// drop. Its ID stays used, and its idempotency key is free again: the
// client was told the submission failed. Loop-only.
func (s *state) withdraw(t *admitTicket) {
	js := t.js
	s.rec.Registry().Counter("engine.journal_errors").Inc()
	js.phase = JobDone
	for _, sr := range js.stages {
		if sr.phase == stageReady {
			sr.phase = stageWaiting
			s.noteStageUnready(js)
		}
		s.indexStage(sr)
	}
	delete(s.jobs, js.id)
	if id, ok := s.idemKeys[t.idem]; ok && id == js.id {
		delete(s.idemKeys, t.idem)
	}
	s.order = append(s.order[:js.orderPos], s.order[js.orderPos+1:]...)
	for i := js.orderPos; i < len(s.order); i++ {
		s.order[i].orderPos = i
	}
	s.emit(obs.Fault{T: s.now(), Fault: "journal_admit_failed", Job: js.id})
	s.deactivate()
}
