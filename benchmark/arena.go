package main

import (
	"fmt"
	"syscall"
)

// arena holds the generated request bodies outside the Go heap. The
// service under test runs in this process, and tens of megabytes of
// generator inputs on the heap would move its garbage collector's pace
// (the heap goal doubles the live heap) — the bodies are the
// generator's memory, not the service's.
type arena struct {
	chunks [][]byte
	cur    []byte // unused tail of the newest chunk
}

const arenaChunk = 16 << 20

// put copies b into the arena and returns the copy.
func (a *arena) put(b []byte) ([]byte, error) {
	if len(b) > len(a.cur) {
		size := arenaChunk
		if len(b) > size {
			size = len(b)
		}
		m, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("arena: mmap %d bytes: %w", size, err)
		}
		a.chunks = append(a.chunks, m)
		a.cur = m
	}
	out := a.cur[:len(b):len(b)]
	copy(out, b)
	a.cur = a.cur[len(b):]
	return out, nil
}

// release unmaps every chunk; bodies handed out before are dead.
func (a *arena) release() {
	for _, c := range a.chunks {
		syscall.Munmap(c) // nothing to do about a failed unmap at teardown
	}
	a.chunks, a.cur = nil, nil
}
