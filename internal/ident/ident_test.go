package ident

import (
	"math/rand"
	"testing"
)

func TestInternerRoundTrip(t *testing.T) {
	in := NewInterner()
	keys := []int64{0, 1, 7, 1 << 30, -5, 42, 1 << 40, 3}
	handles := make(map[int64]Handle, len(keys))
	for _, k := range keys {
		handles[k] = in.Intern(k)
	}
	if in.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", in.Len(), len(keys))
	}
	for _, k := range keys {
		// Re-interning is stable.
		if h := in.Intern(k); h != handles[k] {
			t.Fatalf("Intern(%d) second call = %d, want %d", k, h, handles[k])
		}
		h, ok := in.Lookup(k)
		if !ok || h != handles[k] {
			t.Fatalf("Lookup(%d) = %d,%v, want %d,true", k, h, ok, handles[k])
		}
		if got := in.KeyOf(h); got != k {
			t.Fatalf("KeyOf(%d) = %d, want %d", h, got, k)
		}
	}
	// Handles are dense: all < Cap() = number interned.
	if in.Cap() != len(keys) {
		t.Fatalf("Cap = %d, want %d", in.Cap(), len(keys))
	}
	seen := make(map[Handle]bool)
	for _, h := range handles {
		if int(h) >= in.Cap() || seen[h] {
			t.Fatalf("handle %d out of range or duplicated", h)
		}
		seen[h] = true
	}
}

func TestInternerLookupAbsent(t *testing.T) {
	in := NewInterner()
	in.Intern(3)
	for _, k := range []int64{0, 4, -1, 1 << 50} {
		if h, ok := in.Lookup(k); ok {
			t.Fatalf("Lookup(%d) = %d, want absent", k, h)
		}
	}
}

func TestInternerHandleReuseAfterRemove(t *testing.T) {
	in := NewInterner()
	for i := int64(0); i < 100; i++ {
		in.Intern(i)
	}
	h7, _ := in.Lookup(7)
	if got, ok := in.Remove(7); !ok || got != h7 {
		t.Fatalf("Remove(7) = %d,%v, want %d,true", got, ok, h7)
	}
	if _, ok := in.Lookup(7); ok {
		t.Fatal("Lookup(7) found a removed key")
	}
	if in.Len() != 99 {
		t.Fatalf("Len = %d after remove, want 99", in.Len())
	}
	// The freed handle is reused for the next new key, keeping the handle
	// space dense.
	h := in.Intern(1000)
	if h != h7 {
		t.Fatalf("Intern(1000) = %d, want reused handle %d", h, h7)
	}
	if in.Cap() != 100 {
		t.Fatalf("Cap = %d after reuse, want 100", in.Cap())
	}
	if got := in.KeyOf(h); got != 1000 {
		t.Fatalf("KeyOf(reused) = %d, want 1000", got)
	}
}

// TestInternerWindowChurn models the sliding-window usage: keys arrive in an
// unbounded increasing stream, but only a bounded set is live at a time, so
// the handle space must stay bounded by the peak population.
func TestInternerWindowChurn(t *testing.T) {
	in := NewInterner()
	const window = 64
	for i := int64(0); i < 100_000; i++ {
		in.Intern(i)
		if i >= window {
			if _, ok := in.Remove(i - window); !ok {
				t.Fatalf("Remove(%d) failed", i-window)
			}
		}
	}
	if in.Len() != window {
		t.Fatalf("Len = %d, want %d", in.Len(), window)
	}
	if in.Cap() > 2*window {
		t.Fatalf("Cap = %d, want <= %d (handles must be reused)", in.Cap(), 2*window)
	}
	// The live keys are exactly the last window of the stream.
	for i := int64(100_000 - window); i < 100_000; i++ {
		h, ok := in.Lookup(i)
		if !ok {
			t.Fatalf("Lookup(%d) absent, want live", i)
		}
		if got := in.KeyOf(h); got != i {
			t.Fatalf("KeyOf = %d, want %d", got, i)
		}
	}
}

// TestInternerSparseDenseMigration pins that a key interned far beyond the
// populated range (into the overflow) stays visible, and removable, after
// the populated range has grown and its own page has been allocated.
func TestInternerSparseDenseMigration(t *testing.T) {
	in := NewInterner()
	in.Intern(0)
	// Far outside the populated range.
	far := int64(20_000_000)
	hFar := in.Intern(far)
	if in.idx.over.Load() == nil {
		t.Fatalf("key %d got a page next to a population of one", far)
	}
	// Intern enough small keys that the budget admits far's page, then a
	// neighbour of far that allocates it.
	for i := int64(1); i <= 50_000; i++ {
		in.Intern(i)
	}
	if in.Intern(far + 1); in.idx.npages != 14 {
		t.Fatalf("%d pages, want 14: 13 under 0..50000 and far's", in.idx.npages)
	}
	if h, ok := in.Lookup(far); !ok || h != hFar {
		t.Fatalf("Lookup(%d) = %d,%v after page growth, want %d,true", far, h, ok, hFar)
	}
	if _, ok := in.Remove(far); !ok {
		t.Fatalf("Remove(%d) failed after migration", far)
	}
	if _, ok := in.Lookup(far); ok {
		t.Fatal("removed migrated key still visible")
	}
}

func TestInternerEachLive(t *testing.T) {
	in := NewInterner()
	for i := int64(0); i < 10; i++ {
		in.Intern(i * 3)
	}
	in.Remove(9)
	in.Remove(21)
	var keys []int64
	in.EachLive(func(k int64, h Handle) bool {
		if got := in.KeyOf(h); got != k {
			t.Fatalf("EachLive key %d has KeyOf %d", k, got)
		}
		keys = append(keys, k)
		return true
	})
	if len(keys) != 8 {
		t.Fatalf("EachLive visited %d keys, want 8", len(keys))
	}
	for _, k := range keys {
		if k == 9 || k == 21 {
			t.Fatalf("EachLive visited removed key %d", k)
		}
	}
}

// TestInternerRandomisedAgainstMap cross-checks the interner against a plain
// map reference under a random intern/remove workload.
func TestInternerRandomisedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	in := NewInterner()
	ref := make(map[int64]Handle)
	for step := 0; step < 50_000; step++ {
		k := rng.Int63n(3000)
		if rng.Intn(3) == 0 {
			k = rng.Int63() // occasionally huge
		}
		if rng.Intn(2) == 0 {
			h := in.Intern(k)
			if prev, ok := ref[k]; ok && prev != h {
				t.Fatalf("step %d: Intern(%d) moved from %d to %d", step, k, prev, h)
			}
			ref[k] = h
		} else {
			h, ok := in.Remove(k)
			prev, refOK := ref[k]
			if ok != refOK || (ok && h != prev) {
				t.Fatalf("step %d: Remove(%d) = %d,%v, ref %d,%v", step, k, h, ok, prev, refOK)
			}
			delete(ref, k)
		}
		if in.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, ref %d", step, in.Len(), len(ref))
		}
	}
	for k, h := range ref {
		got, ok := in.Lookup(k)
		if !ok || got != h {
			t.Fatalf("final: Lookup(%d) = %d,%v, want %d,true", k, got, ok, h)
		}
	}
}

func TestLabels(t *testing.T) {
	l := NewLabels()
	a := l.Intern("a")
	b := l.Intern("b")
	if a == b {
		t.Fatal("distinct labels share an id")
	}
	if got := l.Intern("a"); got != a {
		t.Fatalf("re-intern moved a: %d -> %d", a, got)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if l.Name(a) != "a" || l.Name(b) != "b" {
		t.Fatalf("Name round-trip broken: %q %q", l.Name(a), l.Name(b))
	}
	if id, ok := l.Lookup("b"); !ok || id != b {
		t.Fatalf("Lookup(b) = %d,%v, want %d,true", id, ok, b)
	}
	if _, ok := l.Lookup("zzz"); ok {
		t.Fatal("Lookup found an absent label")
	}
}
