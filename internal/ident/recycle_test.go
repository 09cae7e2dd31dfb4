package ident

import (
	"math/rand"
	"testing"
)

// TestInternerRecyclingAgainstReference drives a long randomized
// intern/remove schedule against a map-backed reference model, pinning the
// handle-recycling contract the graph and assignment layers build on:
// Lookup answers exactly the live key set, every live key keeps a distinct
// handle, KeyOf inverts live handles, freed handles are reused rather than
// leaked (bounded handle space), and EachLive enumerates exactly the live
// pairs.
func TestInternerRecyclingAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := NewInterner()
	model := make(map[int64]Handle)

	// Key mix: mostly small non-negative (paged), plus negative keys and
	// keys just past the page limit, which live in the overflow.
	randKey := func() int64 {
		switch rng.Intn(10) {
		case 0:
			return -1 - int64(rng.Intn(64))
		case 1:
			return pageKeyLimit + int64(rng.Intn(1024))
		default:
			return int64(rng.Intn(512))
		}
	}

	verify := func(step int) {
		t.Helper()
		if in.Len() != len(model) {
			t.Fatalf("step %d: Len=%d, model has %d live keys", step, in.Len(), len(model))
		}
		seen := make(map[Handle]int64, len(model))
		for k, want := range model {
			h, ok := in.Lookup(k)
			if !ok {
				t.Fatalf("step %d: live key %d not found", step, k)
			}
			if h != want {
				t.Fatalf("step %d: key %d moved to handle %d (had %d) without a remove", step, k, h, want)
			}
			if prev, dup := seen[h]; dup {
				t.Fatalf("step %d: handle %d aliased by live keys %d and %d", step, h, prev, k)
			}
			seen[h] = k
			if got := in.KeyOf(h); got != k {
				t.Fatalf("step %d: KeyOf(%d)=%d, want %d", step, h, got, k)
			}
		}
		live := 0
		in.EachLive(func(k int64, h Handle) bool {
			live++
			if want, ok := model[k]; !ok || want != h {
				t.Fatalf("step %d: EachLive yielded (%d,%d); model says (%v,%v)", step, k, h, model[k], ok)
			}
			return true
		})
		if live != len(model) {
			t.Fatalf("step %d: EachLive yielded %d pairs, want %d", step, live, len(model))
		}
	}

	peak := 0
	for step := 0; step < 20000; step++ {
		k := randKey()
		if rng.Intn(5) < 3 {
			h := in.Intern(k)
			if want, ok := model[k]; ok && want != h {
				t.Fatalf("step %d: re-intern of live key %d returned handle %d, want %d", step, k, h, want)
			}
			model[k] = h
		} else {
			h, ok := in.Remove(k)
			want, wasLive := model[k]
			if ok != wasLive {
				t.Fatalf("step %d: Remove(%d)=%v, model liveness %v", step, k, ok, wasLive)
			}
			if ok && h != want {
				t.Fatalf("step %d: Remove(%d) freed handle %d, model had %d", step, k, h, want)
			}
			delete(model, k)
			if _, still := in.Lookup(k); still {
				t.Fatalf("step %d: key %d still resolves after Remove", step, k)
			}
		}
		if n := len(model); n > peak {
			peak = n
		}
		if step%997 == 0 {
			verify(step)
		}
	}
	verify(20000)
	// Recycling bound: handles ever issued can exceed the peak population
	// only if the free list was ignored.
	if in.Cap() > peak {
		t.Fatalf("handle space %d exceeds peak population %d: freed handles are not reused", in.Cap(), peak)
	}
}
