// Package ident is the identity layer of the dense core: it interns
// external identifiers into small dense integers, so every container above
// it can be a flat slice instead of a map keyed by the external one.
//
//   - Index is the one int64 key lookup: a paged direct index plus one
//     overflow hash table, with one writer and a lock-free Get.
//   - Interner maps int64 keys to dense Handles (handle+1 in an Index),
//     reusing freed handles, so a sliding window keeps few handles and pages.
//   - Labels maps strings from a small alphabet to dense LabelIDs.
package ident

// Handle is a dense per-container vertex index assigned by an Interner,
// suitable as a slice index.
type Handle uint32

// NoHandle marks the absence of a handle.
const NoHandle Handle = ^Handle(0)

// LabelID is a dense label index assigned by Labels.
type LabelID uint32

// NoLabel marks the absence of a label.
const NoLabel LabelID = ^LabelID(0)

// Interner assigns dense Handles to int64 keys.
type Interner struct {
	idx  Index    // live key -> handle + 1
	keys []int64  // keys[h] owns handle h; stale while h is free
	free []Handle // handles released by Remove, reused LIFO by Intern
}

// NewInterner returns an empty interner.
func NewInterner() *Interner { return &Interner{idx: Index{recycle: true}} }

// NewInternerWithCapacity returns an empty interner with room for n keys.
func NewInternerWithCapacity(n int) *Interner {
	return &Interner{idx: Index{recycle: true}, keys: make([]int64, 0, n)}
}

// Len returns the number of live keys.
func (in *Interner) Len() int { return len(in.keys) - len(in.free) }

// Cap bounds every handle ever issued: a slice of length Cap() fits them.
func (in *Interner) Cap() int { return len(in.keys) }

// Lookup returns the handle of k, if interned.
//
//loom:hotpath
func (in *Interner) Lookup(k int64) (Handle, bool) {
	v := in.idx.Get(k)
	return Handle(v - 1), v != 0
}

// Intern returns the handle of k, assigning one (reusing freed handles
// first) when k is new.
//
//loom:hotpath
func (in *Interner) Intern(k int64) Handle {
	if v := in.idx.Get(k); v != 0 {
		return Handle(v - 1)
	}
	h := Handle(len(in.keys))
	if n := len(in.free); n > 0 {
		h, in.free = in.free[n-1], in.free[:n-1]
		in.keys[h] = k
	} else {
		in.keys = append(in.keys, k)
	}
	in.idx.Set(k, uint32(h)+1)
	return h
}

// KeyOf returns the key owning live handle h (stale for a freed one).
func (in *Interner) KeyOf(h Handle) int64 { return in.keys[h] }

// Remove releases k's handle for reuse, reporting the freed handle and
// whether k was interned.
//
//loom:hotpath
func (in *Interner) Remove(k int64) (Handle, bool) {
	v := in.idx.Delete(k)
	if v != 0 {
		in.free = append(in.free, Handle(v-1))
	}
	return Handle(v - 1), v != 0 // NoHandle, false when absent
}

// EachLive calls fn for every live (key, handle) pair in ascending handle
// order. Freed handles, whose keys no longer map to them, are skipped.
func (in *Interner) EachLive(fn func(k int64, h Handle) bool) {
	for h, k := range in.keys {
		if (len(in.free) == 0 || in.idx.Get(k) == uint32(h)+1) && !fn(k, Handle(h)) {
			return
		}
	}
}

// Labels assigns dense LabelIDs to strings. The zero value is not usable;
// construct with NewLabels.
type Labels struct {
	ids  map[string]LabelID
	strs []string
}

// NewLabels returns an empty label interner.
func NewLabels() *Labels {
	return &Labels{ids: make(map[string]LabelID)}
}

// Len returns the number of interned labels.
func (l *Labels) Len() int { return len(l.strs) }

// Intern returns the id of s, assigning the next id when s is new.
func (l *Labels) Intern(s string) LabelID {
	if id, ok := l.ids[s]; ok {
		return id
	}
	id := LabelID(len(l.strs))
	l.ids[s] = id
	l.strs = append(l.strs, s)
	return id
}

// Lookup returns the id of s, if interned.
func (l *Labels) Lookup(s string) (LabelID, bool) {
	id, ok := l.ids[s]
	return id, ok
}

// Name returns the string owning id.
func (l *Labels) Name(id LabelID) string { return l.strs[id] }
