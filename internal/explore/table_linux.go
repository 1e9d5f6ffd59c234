package explore

import (
	"syscall"
	"unsafe"
)

// newTable returns a zeroed table of n slots and, from mapMinSlots up,
// the anonymous mapping that holds it outside the Go heap, so a large
// search's resident memory is its tables plus a small heap whatever the
// collector's timing. A cacheSlot holds no pointers for the collector
// to miss. MAP_POPULATE faults the pages in with one call: reinsertion
// writes nearly all of them. A small table, or a failed mapping, uses
// the heap (nil mapping).
func newTable(n int) ([]cacheSlot, []byte) {
	if n >= mapMinSlots {
		mem, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(cacheSlot{})),
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_POPULATE)
		if err == nil {
			return unsafe.Slice((*cacheSlot)(unsafe.Pointer(&mem[0])), n), mem
		}
	}
	return make([]cacheSlot, n), nil
}

// freeTable returns a mapped table to the system at once; a heap table
// (nil mapping) is left to the collector.
func freeTable(mem []byte) {
	if mem != nil {
		_ = syscall.Munmap(mem) // fails only for a slice Mmap did not return
	}
}
