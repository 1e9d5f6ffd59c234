//go:build !linux

package explore

// newTable and freeTable keep every table on the heap: only Linux maps
// large ones outside it (table_linux.go).
func newTable(n int) ([]cacheSlot, []byte) { return make([]cacheSlot, n), nil }
func freeTable([]byte)                     {}
