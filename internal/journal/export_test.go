package journal

import (
	"bytes"
	"errors"
	"sync"
)

// ErrInjected is the error a FaultFile's failing writes return.
var ErrInjected = errors.New("journal: injected write fault")

// FaultFile stands in for an open journal's file and injects faults
// into the writes of chosen record kinds ("admit", "place", "done"): a
// held write waits until Release, a failed one returns ErrInjected
// without writing. Every other call passes through.
type FaultFile struct {
	f file

	mu     sync.Mutex
	fail   map[string]bool
	hold   map[string]bool
	held   chan struct{} // receives once per write that starts waiting; the tests hold fewer than its 16
	gate   chan struct{} // closed by Release
	open   bool
	writes map[string]int
}

// InjectFaults puts a FaultFile between j and its file. Call it before
// j has an owner goroutine (before engine.New).
func InjectFaults(j *Journal) *FaultFile {
	ff := &FaultFile{
		f:      j.f,
		fail:   map[string]bool{},
		hold:   map[string]bool{},
		held:   make(chan struct{}, 16),
		gate:   make(chan struct{}),
		writes: map[string]int{},
	}
	j.f = ff
	return ff
}

// Fail makes every later write of a kind record fail.
func (ff *FaultFile) Fail(kind string) {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	ff.fail[kind] = true
}

// Hold makes every later write of a kind record wait until Release.
func (ff *FaultFile) Hold(kind string) {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	ff.hold[kind] = true
}

// Held receives once for each write that starts waiting.
func (ff *FaultFile) Held() <-chan struct{} { return ff.held }

// Release lets every held write (and every later one) go on.
// Idempotent.
func (ff *FaultFile) Release() {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	clear(ff.hold)
	if !ff.open {
		ff.open = true
		close(ff.gate)
	}
}

// Writes returns how many writes of a kind record have been attempted.
func (ff *FaultFile) Writes(kind string) int {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	return ff.writes[kind]
}

func (ff *FaultFile) Write(p []byte) (int, error) {
	kind := recordKind(p)
	ff.mu.Lock()
	ff.writes[kind]++
	hold, fail, gate := ff.hold[kind], ff.fail[kind], ff.gate
	ff.mu.Unlock()
	if hold {
		ff.held <- struct{}{}
		<-gate
	}
	if fail {
		return 0, ErrInjected
	}
	return ff.f.Write(p)
}

// recordKind reads the "k" field of one framed record line.
func recordKind(line []byte) string {
	const key = `{"k":"`
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return ""
	}
	rest := line[i+len(key):]
	if end := bytes.IndexByte(rest, '"'); end >= 0 {
		return string(rest[:end])
	}
	return ""
}

func (ff *FaultFile) Sync() error                               { return ff.f.Sync() }
func (ff *FaultFile) Truncate(size int64) error                 { return ff.f.Truncate(size) }
func (ff *FaultFile) Seek(off int64, whence int) (int64, error) { return ff.f.Seek(off, whence) }
func (ff *FaultFile) Close() error                              { return ff.f.Close() }
