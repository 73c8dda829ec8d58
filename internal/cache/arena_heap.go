//go:build !(linux || darwin) || race

package cache

import "unsafe"

// mapArena allocates the region on the Go heap: where anonymous mappings are
// not used, and under the race detector, which sees heap memory only. Words,
// not bytes, give a Line its 8-byte alignment.
func mapArena(size int) []byte {
	words := make([]uint64, (size+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), size)
}

func unmapArena([]byte) {}
