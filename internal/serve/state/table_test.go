package state

import (
	"sync"
	"sync/atomic"
	"testing"

	"loom/internal/graph"
	"loom/internal/partition"
)

// stored is the partition the writer may store for v in round r: readers
// can check any answer against it without synchronising with the writer.
func stored(v graph.VertexID, r int) partition.ID {
	return partition.ID((int64(v)&0xff)*2+int64(r&1)) % 512
}

// TestTableConcurrentReaders runs one writer placing, re-placing and
// tombstoning vertices across page allocations, page releases, directory
// growth and the overflow (negative, huge and sparse IDs) while readers
// call Get: every answer must be absent or a value the writer stored for
// that vertex. Run it under -race.
func TestTableConcurrentReaders(t *testing.T) {
	tab := &Table{}
	ids := make([]graph.VertexID, 0, 1<<13)
	for v := graph.VertexID(0); v < 1<<13; v += 4 {
		ids = append(ids, v, -v-1, 1<<40+v, v*104_729)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !done.Load(); i = (i + 7) % len(ids) {
				v := ids[i]
				p, ok := tab.Get(v)
				if ok && p != stored(v, 0) && p != stored(v, 1) {
					t.Errorf("Get(%d) = %d, never stored", v, p)
					return
				}
				if !ok && p != partition.Unassigned {
					t.Errorf("Get(%d) absent with partition %d", v, p)
					return
				}
			}
		}(r)
	}
	const rounds = 8
	for round := 0; round < rounds; round++ {
		for _, v := range ids {
			tab.set(v, stored(v, round))
		}
		for i, v := range ids {
			if i%3 != round%3 {
				tab.ix.Delete(int64(v))
			}
		}
	}
	done.Store(true)
	wg.Wait()
	for i, v := range ids {
		p, ok := tab.Get(v)
		if want := i%3 == (rounds-1)%3; ok != want || (ok && p != stored(v, rounds-1)) {
			t.Fatalf("after the writer: Get(%d) = %d,%v", v, p, ok)
		}
	}
}

// BenchmarkTableGet measures the lock-free placement read Where answers
// from, over 100 000 placed vertices; run with -cpu 1,2,4 for scaling.
func BenchmarkTableGet(b *testing.B) {
	const n = 100_000
	tab := &Table{}
	for v := graph.VertexID(0); v < n; v++ {
		tab.set(v, partition.ID(v%16))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		v := graph.VertexID(0)
		for pb.Next() {
			if _, ok := tab.Get(v); !ok {
				b.Errorf("Get(%d) missed", v)
				return
			}
			if v++; v == n {
				v = 0
			}
		}
	})
}
