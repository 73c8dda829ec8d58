//go:build (linux || darwin) && !race

package cache

import (
	"runtime"
	"testing"

	"spb/internal/mem"
)

// TestArenasLiveOutsideTheHeap: building an L3's 9 MiB arena grows the Go heap
// by its header only, so the collector neither scans it nor counts it toward
// its goal.
func TestArenasLiveOutsideTheHeap(t *testing.T) {
	const size, ways = 16 << 20, 16 // config.Skylake's L3
	for {
		if _, ok := arenaPool.Get(geometry{size / (mem.BlockSize * ways), ways}); !ok {
			break
		}
	}
	built := ArenasBuilt(size, ways)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := New("L3", size, ways, 64)
	runtime.ReadMemStats(&after)
	c.Release()
	if ArenasBuilt(size, ways) != built+1 {
		t.Fatal("New took an L3 arena from the pool instead of building one")
	}
	if grew := int64(after.HeapSys) - int64(before.HeapSys); grew >= 1<<20 {
		t.Errorf("building an L3 arena grew HeapSys by %d bytes, want < 1 MiB", grew)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Errorf("building an L3 arena grew HeapAlloc by %d bytes, want < 1 MiB", grew)
	}
}
