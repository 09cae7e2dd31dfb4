package ident

import (
	"math/bits"
	"sync/atomic"
)

const (
	pageBits     = 12 // a page holds 4096 consecutive keys: 16 KiB
	pageMask     = 1<<pageBits - 1
	pageKeyLimit = 1 << 31 // keys outside [0, pageKeyLimit) get no page
	minPages     = 4       // the budget's floor, so a small window gets pages
)

type page [1 << pageBits]uint32

// directory maps page numbers base .. base+len(pages)-1 to pages.
type directory struct {
	base  int64
	pages []atomic.Pointer[page]
	live  []int32 // keys stored on each page; writer-only
}

// Index maps int64 keys to non-zero uint32 values on pages of 4096 keys,
// allocated on first touch and released when their last key goes, behind
// a directory spanning only the pages in use. One budget rule: pages cover
// at most 8x the live keys (at least minPages), and the directory costs no
// more than the budgeted pages. Keys it refuses (negative, >= 2^31, or much
// sparser than the population) and keys that arrived before their page
// live in one overflow. One writer; Get is lock-free. Zero value: empty.
type Index struct {
	dir         atomic.Pointer[directory]
	over        atomic.Pointer[overflow]
	live, olive int // keys stored; of them, in the overflow
	npages      int // pages installed; spare is a released one kept for reuse
	spare       *page
	recycle     bool // reuse a released page; only if no other goroutine reads
}

// Get returns k's value, or 0 when k is absent.
//
//loom:hotpath
func (ix *Index) Get(k int64) uint32 {
	if v, settled := ix.Paged(k); settled || v != 0 {
		return v
	}
	_, v := ix.over.Load().find(k)
	return v
}

// Paged is Get's page path, small enough to inline: k's value on its page
// (else 0), settled when the overflow is empty and so cannot hold k.
//
//loom:hotpath
func (ix *Index) Paged(k int64) (v uint32, settled bool) {
	if d := ix.dir.Load(); d != nil {
		if j := uint64(k>>pageBits - d.base); j < uint64(len(d.pages)) {
			if p := d.pages[j].Load(); p != nil {
				v = atomic.LoadUint32(&p[k&pageMask])
			}
		}
	}
	return v, ix.over.Load() == nil
}

// page returns the directory, k's position in it and k's page, if any.
func (ix *Index) page(k int64) (d *directory, i int, p *page) {
	if d = ix.dir.Load(); d != nil && uint64(k>>pageBits-d.base) < uint64(len(d.pages)) {
		i = int(k>>pageBits - d.base)
		return d, i, d.pages[i].Load()
	}
	return d, 0, nil
}

// Set stores v (non-zero) under k, inserting k or replacing its value.
//
//loom:hotpath
func (ix *Index) Set(k int64, v uint32) {
	d, i, p := ix.page(k)
	if p != nil && p[k&pageMask] != 0 {
		atomic.StoreUint32(&p[k&pageMask], v)
		return
	}
	if s, old := ix.over.Load().find(k); old != 0 {
		s.word.Store(claimed | uint64(v))
		return
	}
	if ix.live++; p == nil {
		if d, i, p = ix.grant(k); p == nil {
			ix.overflowInsert(k, v)
			return
		}
	}
	d.live[i]++
	atomic.StoreUint32(&p[k&pageMask], v)
}

// Delete removes k, returning its value (0 when k was absent).
//
//loom:hotpath
func (ix *Index) Delete(k int64) (v uint32) {
	if d, i, p := ix.page(k); p != nil && p[k&pageMask] != 0 {
		v = atomic.SwapUint32(&p[k&pageMask], 0)
		ix.live--
		if d.live[i]--; d.live[i] == 0 {
			d.pages[i].Store(nil)
			if ix.npages--; ix.recycle {
				ix.spare = p
			}
		}
	} else if s, old := ix.over.Load().find(k); old != 0 {
		v = uint32(s.word.Swap(claimed))
		ix.live--
		if ix.olive--; ix.olive == 0 {
			ix.over.Store(nil)
		}
	}
	return v
}

// grant installs k's page if the budget allows, returning the directory,
// k's position in it and the page; no page sends k to the overflow.
func (ix *Index) grant(k int64) (*directory, int, *page) {
	budget := max(minPages, 8*ix.live>>pageBits)
	if k < 0 || k >= pageKeyLimit || ix.npages >= budget {
		return nil, 0, nil
	}
	pn := k >> pageBits
	d := ix.dir.Load()
	if d == nil || pn < d.base || pn >= d.base+int64(len(d.pages)) {
		// Span pn and the pages in use with slack, if the budget allows.
		lo, hi := pn, pn
		for j := 0; d != nil && j < len(d.pages); j++ {
			if d.pages[j].Load() != nil {
				lo, hi = min(lo, d.base+int64(j)), max(hi, d.base+int64(j))
			}
		}
		n := max(8, 2*(hi-lo+1))
		if n > int64(budget)<<8 {
			return nil, 0, nil
		}
		nd := &directory{base: max(0, lo-(n-(hi-lo+1))/2), pages: make([]atomic.Pointer[page], n), live: make([]int32, n)}
		for j := 0; d != nil && j < len(d.pages); j++ {
			if p := d.pages[j].Load(); p != nil {
				nd.pages[d.base+int64(j)-nd.base].Store(p)
				nd.live[d.base+int64(j)-nd.base] = d.live[j]
			}
		}
		d = nd
		ix.dir.Store(nd)
	}
	p := ix.spare
	if ix.spare = nil; p == nil {
		p = new(page)
	}
	d.pages[pn-d.base].Store(p)
	ix.npages++
	return d, int(pn - d.base), p
}

// overflow is a linear-probing hash table whose claimed slots keep their
// key until a rebuild, so a lock-free reader never sees a slot change keys.
type overflow struct {
	slots []oslot // a power of two, at most 3/4 claimed
	shift uint8   // 64 - log2(len(slots))
	used  int     // claimed slots (writer-only)
}

type oslot struct {
	key  atomic.Int64
	word atomic.Uint64
}

const claimed = 1 << 32 // oslot.word is 0 while unclaimed, then claimed | value

// find is the overflow probe: k's slot and its value as probed (readers
// must not reload it), else the unclaimed slot ending the probe and 0.
func (o *overflow) find(k int64) (*oslot, uint32) {
	if o == nil {
		return nil, 0
	}
	mask := uint64(len(o.slots) - 1)
	for i := uint64(k) * 0x9E3779B97F4A7C15 >> o.shift; ; i = (i + 1) & mask {
		s := &o.slots[i]
		if w := s.word.Load(); w == 0 || s.key.Load() == k {
			return s, uint32(w)
		}
	}
}

// overflowInsert adds absent k, rebuilding the table a quarter full first
// when claiming a slot would fill it past 3/4.
func (ix *Index) overflowInsert(k int64, v uint32) {
	o := ix.over.Load()
	if o == nil || 4*(o.used+1) > 3*len(o.slots) {
		n := 16
		for n < 4*(ix.olive+1) {
			n *= 2
		}
		fresh := &overflow{slots: make([]oslot, n), shift: uint8(64 - bits.TrailingZeros(uint(n)))}
		for j := 0; o != nil && j < len(o.slots); j++ {
			if w := o.slots[j].word.Load(); uint32(w) != 0 {
				fresh.put(o.slots[j].key.Load(), uint32(w))
			}
		}
		o = fresh
		ix.over.Store(o)
	}
	o.put(k, v)
	ix.olive++
}

// put stores k's value, claiming a slot if k has none.
func (o *overflow) put(k int64, v uint32) {
	s, _ := o.find(k)
	if s.word.Load() == 0 {
		s.key.Store(k)
		o.used++
	}
	s.word.Store(claimed | uint64(v))
}
