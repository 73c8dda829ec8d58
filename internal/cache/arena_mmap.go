//go:build (linux || darwin) && !race

package cache

import (
	"fmt"
	"syscall"
)

// mapArena maps a zero-filled, page-aligned, private anonymous region outside
// the Go heap. Failing to is running out of memory, which make would not
// survive either.
func mapArena(size int) []byte {
	region, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic(fmt.Sprintf("cache: mapping a %d-byte arena: %v", size, err))
	}
	return region
}

func unmapArena(region []byte) {
	if err := syscall.Munmap(region); err != nil {
		panic(fmt.Sprintf("cache: unmapping a %d-byte arena: %v", len(region), err))
	}
}
