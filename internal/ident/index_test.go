package ident

import (
	"math/rand"
	"testing"
)

// checkIndex compares ix with model key by key and checks the page
// bookkeeping: every installed page's live count matches its non-zero
// slots, the installed pages number npages, and Len counts the model.
func checkIndex(t *testing.T, ix *Index, model map[int64]uint32, where string) {
	t.Helper()
	for k, want := range model {
		if got := ix.Get(k); got != want {
			t.Fatalf("%s: Get(%d) = %d, model %d", where, k, got, want)
		}
	}
	if ix.live != len(model) {
		t.Fatalf("%s: index holds %d keys, model %d", where, ix.live, len(model))
	}
	installed, onPages := 0, 0
	if d := ix.dir.Load(); d != nil {
		for i := range d.pages {
			p := d.pages[i].Load()
			if p == nil {
				continue
			}
			installed++
			n := 0
			for _, v := range p {
				if v != 0 {
					n++
				}
			}
			if n == 0 || int32(n) != d.live[i] {
				t.Fatalf("%s: page %d holds %d keys, counted %d", where, d.base+int64(i), n, d.live[i])
			}
			onPages += n
		}
	}
	inOverflow := ix.olive
	if installed != ix.npages || onPages+inOverflow != len(model) {
		t.Fatalf("%s: %d pages installed, npages %d; %d keys on pages + %d in overflow, model %d",
			where, installed, ix.npages, onPages, inOverflow, len(model))
	}
}

// TestIndexAgainstMap drives the paged index against a map model over 240
// seeds, half of them recycling released pages. Each seed slides a 256-key
// window over a stretch of 10^6 keys (pages in use must stay bounded), then
// mixes dense keys, negative keys, keys >= 2^31 and keys sparse enough to
// exceed the page budget with removals, plants an overflow key whose page
// is allocated later, and finally removes everything, releasing every page.
func TestIndexAgainstMap(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix := &Index{recycle: seed%2 == 0}
		model := make(map[int64]uint32)
		set := func(k int64) {
			v := uint32(rng.Intn(1<<20)) + 1
			ix.Set(k, v)
			model[k] = v
			if got := ix.Get(k); got != v {
				t.Fatalf("seed %d: Get(%d) = %d right after Set %d", seed, k, got, v)
			}
		}
		del := func(k int64) {
			if got, want := ix.Delete(k), model[k]; got != want {
				t.Fatalf("seed %d: Delete(%d) = %d, model %d", seed, k, got, want)
			}
			delete(model, k)
			if got := ix.Get(k); got != 0 {
				t.Fatalf("seed %d: Get(%d) = %d after Delete", seed, k, got)
			}
		}

		// A window of 256 keys sliding with stride 1..3 spans at most 768
		// keys: two pages, and a directory of a few entries.
		var window []int64
		for k := rng.Int63n(1_000_000 - 5000); len(window) < 2000; k += 1 + rng.Int63n(3) {
			set(k)
			if window = append(window, k); len(window) > 256 {
				del(window[len(window)-257])
			}
			if ix.npages > 2 || len(ix.dir.Load().pages) > 8 {
				t.Fatalf("seed %d: window at %d holds %d pages, directory %d", seed, k, ix.npages, len(ix.dir.Load().pages))
			}
		}
		checkIndex(t, ix, model, "window")

		keys := func() int64 {
			switch rng.Intn(8) {
			case 0:
				return -1 - rng.Int63n(5000)
			case 1:
				return pageKeyLimit + rng.Int63n(5000)
			case 2:
				return rng.Int63n(pageKeyLimit)
			case 3:
				return rng.Int63()
			default:
				return rng.Int63n(20_000)
			}
		}
		for op := 0; op < 3000; op++ {
			k := keys()
			if rng.Intn(5) < 3 {
				set(k)
			} else {
				del(k)
			}
			if op%500 == 499 {
				checkIndex(t, ix, model, "mix")
			}
		}

		// An overflow key whose page is allocated later: with the budget
		// spent on far pages, k goes to the overflow; enough dense keys
		// later, its neighbour gets the page, and k must stay reachable.
		fresh := &Index{recycle: true}
		for i := int64(0); i < minPages; i++ {
			fresh.Set(i<<pageBits, 1)
		}
		k := (minPages+1+rng.Int63n(100))<<pageBits + rng.Int63n(pageMask)
		fresh.Set(k, 7)
		if fresh.over.Load() == nil || fresh.npages != minPages {
			t.Fatalf("seed %d: key %d did not go to the overflow (%d pages)", seed, k, fresh.npages)
		}
		for i := int64(1); i < 2<<pageBits; i++ {
			fresh.Set(i, 1)
		}
		fresh.Set(k^1, 9)
		if _, _, p := fresh.page(k); p == nil || fresh.Get(k) != 7 || fresh.Get(k^1) != 9 {
			t.Fatalf("seed %d: overflow key %d under a later page reads %d", seed, k, fresh.Get(k))
		}
		if fresh.Set(k, 8); fresh.Get(k) != 8 || fresh.Delete(k) != 8 || fresh.Get(k) != 0 {
			t.Fatalf("seed %d: overflow key %d under a later page not updated or removed", seed, k)
		}

		for k := range model {
			del(k)
		}
		checkIndex(t, ix, model, "emptied")
		if ix.npages != 0 || ix.over.Load() != nil || (ix.spare != nil) != ix.recycle {
			t.Fatalf("seed %d: emptied index keeps %d pages, overflow %v, spare %v (recycle %v)",
				seed, ix.npages, ix.over.Load() != nil, ix.spare != nil, ix.recycle)
		}
	}
}

// TestIndexReusesReleasedPage pins single-owner recycling: a window that
// slides past a page hands the released page to the next one, so steady
// churn allocates no pages.
func TestIndexReusesReleasedPage(t *testing.T) {
	ix := &Index{recycle: true}
	for k := int64(0); k < 1_000_000; k++ {
		ix.Set(k, 1)
		if k >= 256 {
			ix.Delete(k - 256)
		}
		if ix.npages > 2 {
			t.Fatalf("window at %d holds %d pages", k, ix.npages)
		}
	}
	_, _, p := ix.page(999_999)
	ix.spare = nil
	for k := int64(999_744); k < 1_000_000; k++ {
		ix.Delete(k)
	}
	if ix.spare != p {
		t.Fatal("the released page was not kept for reuse")
	}
	if ix.Set(5<<pageBits, 1); ix.spare != nil {
		t.Fatal("the next page was allocated instead of reusing the released one")
	}
}

// TestEachLiveAfterRemovalsDoesNotAllocate pins that skipping freed
// handles costs no allocation.
func TestEachLiveAfterRemovalsDoesNotAllocate(t *testing.T) {
	in := NewInterner()
	for k := int64(0); k < 1000; k++ {
		in.Intern(k * 3)
	}
	for k := int64(0); k < 1000; k += 7 {
		in.Remove(k * 3)
	}
	live := 0
	allocs := testing.AllocsPerRun(100, func() {
		live = 0
		in.EachLive(func(int64, Handle) bool { live++; return true })
	})
	if allocs != 0 || live != in.Len() {
		t.Fatalf("EachLive: %v allocs per call, %d live of %d", allocs, live, in.Len())
	}
}

// BenchmarkInternerSlidingWindow interns one new key and removes the key
// 256 arrivals older per op, with keys increasing without bound: the
// window graph's steady state. 0 allocs/op.
func BenchmarkInternerSlidingWindow(b *testing.B) {
	in := NewInterner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := int64(i)
		in.Intern(k)
		if k >= 256 {
			in.Remove(k - 256)
		}
	}
}
