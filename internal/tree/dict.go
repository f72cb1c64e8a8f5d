package tree

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Interner is a corpus-wide dictionary of subtree shapes: it assigns
// dense int32 label IDs such that two subtrees anywhere in the corpus
// get equal IDs iff they are isomorphic. All methods are safe for
// concurrent use; profile builds and queries share one Interner.
//
// A shape is the sorted labels of its children, and the dictionary
// holds each as its coded key: the run length as a uvarint, then the
// labels as uvarint deltas, the first from 0 — the form a segment's
// dict section front-codes, so a checkpoint codes straight from the key
// buffer and a load expands into one (Coded, NewInternerFromCoded). The
// keys sit back to back in one byte buffer with uint32 offsets, and an
// open-addressing table of IDs, keyed by one hash of the coded key,
// finds them. A lookup takes no lock; interning a new shape takes the
// one mutex, appends the key and places its ID.
//
// IDs: a shape's children always carry smaller IDs than the shape,
// because a child's ID is taken before its parent's key can be formed;
// so ID 0 is the leaf. A full build (Canonicalize) numbers every shape
// of the corpus in one canonical order, a function of the rows alone:
// children first, the shapes the rows' stored words use most in the
// IDs that code in fewest bytes, and among IDs of one width the lower
// shape first, then the one whose children's new IDs compare first.
// Shapes interned later, by mutations, log replay or Profile, take the
// next IDs in the order they are interned.
//
// The dictionary only grows — shapes are never evicted, so label IDs
// stay stable for the life of the corpus (epoch clones and rebuilt
// indexes keep their profiles valid). Only indexed items intern
// (Profile); query signatures compile read-only (ProfileQuery), so the
// dictionary's size is bounded by the distinct shapes of the corpus's
// own signatures, never by what is queried against it.
type Interner struct {
	id  uint64                     // process-unique; profile caches key on it (no pointer pinning)
	n   atomic.Int32               // shapes interned; stored after the shape's slot
	tab atomic.Pointer[shapeTable] // the storage, replaced by a larger copy when full

	mu   sync.Mutex // held to intern; only its holder writes the table
	used int        // bytes of tab.keys in use, under mu
}

// shapeTable is an Interner's storage. Shape id's coded key is
// keys[off[id]:off[id+1]]; slots holds 1 + id at the first free slot
// from its key's hash, 0 when free, and is at most half full. The
// arrays are full length, written only past what is interned, and an
// entry never changes once written, so a reader of an older table reads
// the same bytes a newer one holds. A shape's key and offset are written
// before its slot: a reader that finds the slot finds them in the table
// current when it looks.
type shapeTable struct {
	keys  []byte
	off   []uint32
	slots []int32
}

func (t *shapeTable) key(id int32) []byte { return t.keys[t.off[id]:t.off[id+1]] }

// place puts id, whose key hashes to h, in the first free slot from h.
func (t *shapeTable) place(id int32, h uint64) {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for atomic.LoadInt32(&t.slots[i]) != 0 {
		i = (i + 1) & mask
	}
	atomic.StoreInt32(&t.slots[i], id+1)
}

// internSeed hashes coded keys; the hash never affects IDs.
var internSeed = maphash.MakeSeed()

// shapeHash hashes a coded key.
func shapeHash(key []byte) uint64 { return maphash.Bytes(internSeed, key) }

// internerIDs hands every dictionary a process-unique identity.
var internerIDs atomic.Uint64

// NewInterner returns an empty shape dictionary.
func NewInterner() *Interner {
	in := &Interner{id: internerIDs.Add(1)}
	in.tab.Store(&shapeTable{off: make([]uint32, 8), slots: make([]int32, 16)})
	return in
}

// Len reports how many distinct subtree shapes have been interned.
func (in *Interner) Len() int { return int(in.n.Load()) }

// lookup returns the ID of the shape with coded key key, hashing to h.
func (in *Interner) lookup(key []byte, h uint64) (int32, bool) {
	t := in.tab.Load()
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := atomic.LoadInt32(&t.slots[i])
		if e == 0 {
			return 0, false
		}
		// The slot's shape may have been interned after t was loaded, into
		// a table that replaced it: the current one holds its key.
		if bytes.Equal(in.tab.Load().key(e-1), key) {
			return e - 1, true
		}
	}
}

// resolve returns the label of the shape with coded key key, hashing to
// h. A shape the dictionary has not seen is registered under the next
// ID, unless readOnly, in which case ok is false and nothing changes.
// The count moves only once the shape's slot is placed, so a reader
// that sees Len move and then looks the key up finds it: Len is an
// exact change detector for ProfileQueryCached.
func (in *Interner) resolve(key []byte, h uint64, readOnly bool) (id int32, ok bool) {
	if id, ok = in.lookup(key, h); ok || readOnly {
		return id, ok
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok = in.lookup(key, h); ok {
		return id, true
	}
	return in.add(key, h), true
}

// add interns a shape the dictionary lacks. Callers hold mu.
func (in *Interner) add(key []byte, h uint64) int32 {
	id := in.n.Load()
	t := in.reserve(int(id)+1, len(key))
	copy(t.keys[in.used:], key)
	in.used += len(key)
	t.off[id+1] = uint32(in.used)
	t.place(id, h)
	in.n.Store(id + 1)
	return id
}

// reserve returns the table, replaced first by a larger copy when it
// cannot hold n shapes and extra more key bytes. Callers hold mu.
func (in *Interner) reserve(n, extra int) *shapeTable {
	t := in.tab.Load()
	if n+1 <= len(t.off) && in.used+extra <= len(t.keys) && 2*n <= len(t.slots) {
		return t
	}
	g := *t
	if need := in.used + extra; need > len(t.keys) {
		g.keys = make([]byte, max(need, 2*len(t.keys)))
		copy(g.keys, t.keys[:in.used])
	}
	had := in.Len()
	if n+1 > len(t.off) {
		g.off = make([]uint32, max(n+1, 2*len(t.off)))
		copy(g.off, t.off[:had+1])
	}
	if 2*n > len(t.slots) {
		g.slots = make([]int32, slotsFor(n))
		for id := range int32(had) {
			g.place(id, shapeHash(g.key(id)))
		}
	}
	in.tab.Store(&g)
	return &g
}

// slotsFor is the table size that holds n shapes at most half full.
func slotsFor(n int) int {
	size := 16
	for size < 2*n {
		size *= 2
	}
	return size
}

// Reserve makes room for the dictionary to hold shapes shapes and size
// bytes of coded keys in all without growing.
func (in *Interner) Reserve(shapes, size int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.reserve(shapes, max(0, size-in.used))
}

// Bytes is the memory the dictionary's storage holds: its key buffer,
// offsets and table.
func (in *Interner) Bytes() int64 {
	t := in.tab.Load()
	return int64(len(t.keys) + 4*len(t.off) + 4*len(t.slots))
}

// Coded returns the dictionary's coded keys in ID order, back to back,
// shape id's at keys[off[id]:off[id+1]] — what a segment's dict section
// front-codes — without copying them. The result views the dictionary's
// own buffer and must not be written; interning goes on beside it.
func (in *Interner) Coded() (keys []byte, off []uint32) { return in.view() }

// view is the dictionary's first Len shapes: their keys and offsets,
// capacity-clipped views that are never written again.
func (in *Interner) view() (keys []byte, off []uint32) {
	n := in.Len()
	t := in.tab.Load() // loaded after the count: it holds n shapes
	end := t.off[n]
	return t.keys[:end:end], t.off[: n+1 : n+1]
}

// Kids appends the sorted child labels of shape id, which the
// dictionary holds, to dst.
func (in *Interner) Kids(id int32, dst []int32) []int32 {
	return appendKids(dst, in.tab.Load().key(id))
}

// NewInternerFromCoded adopts a dictionary's coded keys — shape id's at
// keys[off[id]:off[id+1]], off[0] = 0 — as it stands: a segment's dict
// section, which the caller has checked key by key (every uvarint
// well-formed and each child label below its shape's ID). It hashes each
// key once into the table and fails only on a key that repeats an
// earlier one. Neither slice may be written again.
func NewInternerFromCoded(keys []byte, off []uint32) (*Interner, error) {
	n := len(off) - 1
	t := &shapeTable{keys: keys[:len(keys):len(keys)], off: off[: n+1 : n+1], slots: make([]int32, slotsFor(n))}
	in := &Interner{id: internerIDs.Add(1), used: len(keys)}
	mask := uint64(len(t.slots) - 1)
	for id := range int32(n) {
		key := t.key(id)
		i := shapeHash(key) & mask
		for ; t.slots[i] != 0; i = (i + 1) & mask {
			if bytes.Equal(t.key(t.slots[i]-1), key) {
				return nil, fmt.Errorf("tree: shape %d duplicates shape %d", id, t.slots[i]-1)
			}
		}
		t.slots[i] = id + 1
	}
	in.tab.Store(t)
	in.n.Store(int32(n))
	return in, nil
}

// NewInternerFromKids builds a dictionary from a CSR shape table: shape
// id's sorted child labels are kids[kidOff[id]:kidOff[id+1]], each a
// smaller ID (children intern before parents). It checks all of that,
// codes the keys and adopts them (NewInternerFromCoded).
func NewInternerFromKids(kidOff, kids []int32) (*Interner, error) {
	if len(kidOff) == 0 || kidOff[0] != 0 {
		return nil, fmt.Errorf("tree: shape table offsets must start at 0")
	}
	n := len(kidOff) - 1
	if int(kidOff[n]) != len(kids) {
		return nil, fmt.Errorf("tree: shape table declares %d child labels, has %d", kidOff[n], len(kids))
	}
	var keys []byte
	off := make([]uint32, n+1)
	for id := range n {
		lo, hi := kidOff[id], kidOff[id+1]
		if lo > hi || hi > kidOff[n] {
			return nil, fmt.Errorf("tree: shape %d's child labels run from %d to %d of %d", id, lo, hi, kidOff[n])
		}
		prev := int32(0)
		for _, kid := range kids[lo:hi] {
			if kid < prev || kid >= int32(id) {
				return nil, fmt.Errorf("tree: shape %d has child label %d (want sorted, in [0, %d))", id, kid, id)
			}
			prev = kid
		}
		keys = appendKey(keys, kids[lo:hi])
		off[id+1] = uint32(len(keys))
	}
	return NewInternerFromCoded(keys, off)
}

// appendKey appends the coded key of the shape whose sorted child labels
// are kids: the run length, then the labels as deltas, the first from 0.
// A query-local (negative) label makes the first delta 2³¹ or more, which
// no dictionary key holds.
func appendKey(dst []byte, kids []int32) []byte {
	dst = appendUvarint(dst, uint32(len(kids)))
	prev := uint32(0)
	for _, k := range kids {
		dst = appendUvarint(dst, uint32(k)-prev)
		prev = uint32(k)
	}
	return dst
}

// appendKids appends the child labels of the coded key key to dst.
func appendKids(dst []int32, key []byte) []int32 {
	n, i := uvarintAt(key, 0)
	kid := uint32(0)
	for range n {
		if c := key[i]; c < 0x80 {
			kid, i = kid+uint32(c), i+1
		} else {
			var d uint32
			d, i = uvarintAt(key, i)
			kid += d
		}
		dst = append(dst, int32(kid))
	}
	return dst
}

// keyDegree is the child count of the shape with coded key key.
func keyDegree(key []byte) int32 {
	n, _ := uvarintAt(key, 0)
	return int32(n)
}

// uvarintAt decodes the uvarint at b[i:] and returns it and the index
// past it.
func uvarintAt(b []byte, i int) (uint32, int) {
	x := uint32(b[i])
	if x < 0x80 {
		return x, i + 1
	}
	x &= 0x7f
	for s := 7; ; s += 7 {
		i++
		c := b[i]
		if x |= uint32(c&0x7f) << s; c < 0x80 {
			return x, i + 1
		}
	}
}
