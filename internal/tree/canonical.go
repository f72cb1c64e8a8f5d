package tree

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
)

// Canonicalize interns the shapes of the arenas' rows, which are all
// labelled against one other dictionary, into in, which must hold no
// shapes yet, in the dictionary's canonical order, and rewrites every
// row's stored labels to in's IDs, on up to workers goroutines:
//
//   - children before parents;
//   - the shapes the rows' stored words use most take the IDs that code
//     in fewest bytes: a shape's ID takes as many uvarint bytes as its
//     place in the order of (uses, descending; height) would, so the
//     rows are as short as that order makes them;
//   - among the IDs of one width, the lower shape first, then the one
//     whose sorted children's new IDs — its coded key's deltas —
//     compare first as bytes, so shapes that share leading children
//     sit side by side, where a checkpoint's front-coded dictionary
//     stores them in a few bytes.
//
// No step depends on the IDs the arenas' dictionary gave, so the result
// is the same whichever workers interned which shapes first.
func (in *Interner) Canonicalize(arenas []*ProfileArena, workers int) {
	if len(arenas) == 0 {
		return
	}
	from := arenas[0].Dict
	for _, a := range arenas {
		if a.Dict != from {
			panic("tree: canonicalizing rows of more than one dictionary")
		}
	}
	if in.Len() != 0 || from == in {
		panic("tree: canonicalizing into a dictionary that holds shapes")
	}
	workers = max(1, min(workers, len(arenas)))

	// The uses of each shape in the stored words, counted per worker over
	// its share of the arenas. They fit a uint32: a row's words take a
	// byte a label at least, and each of the (out- and in-tree) arenas a
	// build compiles indexes its words with int32 offsets.
	uses := make([][]uint32, workers)
	split(len(arenas), workers, func(w, lo, hi int) {
		count := make([]uint32, from.Len())
		for _, a := range arenas[lo:hi] {
			for r := range a.N {
				row := a.Stored(r)
				hdr, i := uvarintAt(row, 0)
				for range hdr &^ ParentsFlag {
					var l uint32
					l, i = uvarintAt(row, i)
					count[l]++
				}
			}
		}
		uses[w] = count
	})
	for _, count := range uses[1:] {
		for s, c := range count {
			uses[0][s] += c
		}
	}

	canon, keys, off := canonicalOrder(from, uses[0], workers)
	// in adopts the shapes, in canonical order, beside the rows' rewrite
	// to in's IDs.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		in.adopt(keys, off)
	}()
	split(len(arenas), workers, func(_, lo, hi int) {
		var words []byte
		for _, a := range arenas[lo:hi] {
			words = words[:0]
			at := a.WordOff[0]
			for r := range a.N {
				row := a.Words[at:a.WordOff[r+1]]
				at = a.WordOff[r+1]
				hdr, i := uvarintAt(row, 0)
				words = appendUvarint(words, hdr)
				for range hdr &^ ParentsFlag {
					var l uint32
					l, i = uvarintAt(row, i)
					words = appendUvarint(words, uint32(canon[l]))
				}
				words = append(words, row[i:]...)
				a.WordOff[r+1] = int32(len(words))
			}
			if cap(a.Words) >= len(words) {
				a.Words = append(a.Words[:0], words...)
			} else {
				a.Words = slices.Clone(words)
			}
		}
	})
	wg.Wait()
	for _, a := range arenas {
		a.Dict = in
	}
}

// split runs f(w, lo, hi) for the w-th of workers even shares [lo, hi)
// of n items, the last on the calling goroutine, and waits for all.
func split(n, workers int, f func(w, lo, hi int)) {
	var wg sync.WaitGroup
	for w := range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w, w*n/workers, (w+1)*n/workers)
		}()
	}
	f(workers-1, (workers-1)*n/workers, n)
	wg.Wait()
}

// canonicalOrder numbers the shapes of u in canonical order
// (Canonicalize), given each one's uses: canon[s] is shape s's new ID,
// and the shapes' coded keys under new IDs are keys[off[i]:off[i+1]], in
// new-ID order.
//
// A shape's children are lower than it, and every one but the leaf is
// used at least as often: a node whose child has children is stored
// above the deepest level, as is the child. So in the order of (uses,
// descending; height) a shape's children come before it, and so do
// they in the order of (the ID width that order gives, height), which
// the leaf, with no children, heads. The shapes of each run of equal
// width and height, whose children are numbered by then, are numbered
// in the order of their coded keys' deltas under new IDs.
func canonicalOrder(u *Interner, uses []uint32, workers int) (canon []int32, keys []byte, off []uint32) {
	n := u.Len()
	t := u.tab.Load()
	// rank is a shape's place by (uses, height): how far its uses fall
	// short of the most any shape has in the high bits, its height in the
	// low; the leaf's is 0.
	height := make([]int32, n)
	var top int32
	var most uint32
	for s := range int32(n) {
		key := t.key(s)
		if n, i := uvarintAt(key, 0); n > 0 {
			kid, i := uvarintAt(key, i)
			height[s] = height[kid] + 1
			for i < len(key) {
				if key[i] == 0 { // a repeat of kid
					i++
					continue
				}
				var d uint32
				d, i = uvarintAt(key, i)
				kid += d
				height[s] = max(height[s], height[kid]+1)
			}
		}
		top, most = max(top, height[s]), max(most, uses[s])
	}
	rank := make([]uint64, n)
	hb := bits.Len32(uint32(top))
	for s, h := range height {
		if h > 0 {
			rank[s] = uint64(most-uses[s])<<hb | uint64(h)
		}
	}
	var rs radix
	order := rs.sort(rank, make([]int32, n))
	// Rank again, in place, by the width of the ID that place gives, then
	// height. A run of equal rank takes its last place's width, so no
	// shape's width depends on its place among equals, and no shape takes
	// an ID wider than its width. A run's ranks are rewritten once it is
	// found, and later runs' are read before theirs are.
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && rank[order[hi]] == rank[order[lo]] {
			hi++
		}
		w := uint64(UvarintLen(uint32(hi - 1)))
		for _, s := range order[lo:hi] {
			if h := height[s]; h > 0 {
				rank[s] = w<<hb | uint64(h)
			}
		}
		lo = hi
	}
	order = rs.sort(rank, make([]int32, n))

	// Each run of equal rank is a group: its shapes' keys are coded (g),
	// sorted, and appended to keys.
	canon = make([]int32, n)
	for s := range canon {
		canon[s] = -1
	}
	// The keys under new IDs take about as many bytes as under old ones;
	// what they leave of the buffer is the dictionary's room for more.
	used := t.off[n]
	keys = make([]byte, 0, used+used/16)
	off = append(make([]uint32, 0, n+1), 0)
	g := &keyGroup{t: t, canon: canon, bufs: make([][]byte, workers), runs: make([][]uint64, workers)}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && rank[order[hi]] == rank[order[lo]] {
			hi++
		}
		g.group = order[lo:hi]
		g.at = slices.Grow(g.at[:0], 3*len(g.group))[:3*len(g.group)]
		if len(g.group) < 1024 {
			g.code(0, 0, len(g.group))
		} else {
			split(len(g.group), workers, g.code)
		}
		for _, i := range g.sort() {
			canon[g.group[i]] = int32(len(off) - 1)
			keys = append(keys, g.key(int32(i))...)
			off = append(off, uint32(len(keys)))
		}
		lo = hi
	}
	return canon, keys, off
}

// keyGroup codes and sorts the keys of one group of shapes being
// numbered: shape group[i]'s under new IDs is
// bufs[at[3i]][at[3i+1]:at[3i+2]]. runs, prefix, order and rs are
// scratch, a buffer and a runs scratch per worker.
type keyGroup struct {
	t      *shapeTable
	canon  []int32
	group  []int32
	bufs   [][]byte
	runs   [][]uint64
	at     []int32
	prefix []uint64
	order  []int32
	rs     radix
}

func (g *keyGroup) key(i int32) []byte {
	at := g.at[3*i:]
	return g.bufs[at[0]][at[1]:at[2]]
}

// deltas is the coded key of the group's shape i past its run length.
func (g *keyGroup) deltas(i int32) []byte {
	key := g.key(i)
	_, at := uvarintAt(key, 0)
	return key[at:]
}

// code codes the keys of group[lo:hi] under new IDs, as worker w, into
// a buffer sized for them as they are coded under old IDs, about as long.
func (g *keyGroup) code(w, lo, hi int) {
	runs := g.runs[w]
	size := 0
	for _, s := range g.group[lo:hi] {
		size += len(g.t.key(s))
	}
	buf := slices.Grow(g.bufs[w][:0], size+size/16)
	for i := lo; i < hi; i++ {
		runs = appendRuns(runs[:0], g.t.key(g.group[i]))
		for j, r := range runs {
			c := g.canon[r>>32]
			if c < 0 {
				panic("tree: a shape ranks before one of its children")
			}
			runs[j] = uint64(c)<<32 | r&(1<<32-1)
		}
		slices.Sort(runs)
		g.at[3*i], g.at[3*i+1] = int32(w), int32(len(buf))
		buf = appendRunsKey(buf, runs)
		g.at[3*i+2] = int32(len(buf))
	}
	g.runs[w], g.bufs[w] = runs, buf
}

// sort returns the indexes of the group's shapes in the order of their
// keys' deltas as bytes: by their first eight bytes, then the runs that
// tie on them by their whole deltas. Distinct shapes have distinct
// deltas, which code their children to the last.
func (g *keyGroup) sort() []int32 {
	n := len(g.group)
	g.order = slices.Grow(g.order[:0], n)[:n]
	if n == 1 {
		g.order[0] = 0
		return g.order
	}
	g.prefix = slices.Grow(g.prefix[:0], n)[:n]
	for i := range int32(n) {
		var b [8]byte
		copy(b[:], g.deltas(i))
		g.prefix[i] = binary.BigEndian.Uint64(b[:])
	}
	g.order = g.rs.sort(g.prefix, g.order)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && g.prefix[g.order[hi]] == g.prefix[g.order[lo]] {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(g.order[lo:hi], func(a, b int32) int { return bytes.Compare(g.deltas(a), g.deltas(b)) })
		}
		lo = hi
	}
	return g.order
}

// radix is the scratch of a least significant digit radix sort.
type radix struct {
	keys, tk []uint64
	ti       []int32
}

// sort writes to order, of len(keys), the indexes of keys in the order
// of their keys, equal keys in index order, and returns it (order, or
// scratch of r's of the same length): a byte a pass, skipping the bytes
// every key shares.
func (r *radix) sort(keys []uint64, order []int32) []int32 {
	n := len(keys)
	var or, and uint64 = 0, ^uint64(0)
	for _, k := range keys {
		or, and = or|k, and&k
	}
	ks := append(r.keys[:0], keys...)
	tk := slices.Grow(r.tk[:0], n)[:n]
	ti := slices.Grow(r.ti[:0], n)[:n]
	for i := range order {
		order[i] = int32(i)
	}
	for shift := 0; shift < 64; shift += 8 {
		if (or^and)>>shift&0xff == 0 {
			continue
		}
		var count [256]int
		for _, k := range ks {
			count[k>>shift&0xff]++
		}
		at := 0
		for d, c := range count {
			count[d], at = at, at+c
		}
		for i, k := range ks {
			d := k >> shift & 0xff
			tk[count[d]], ti[count[d]] = k, order[i]
			count[d]++
		}
		ks, tk = tk, ks
		order, ti = ti, order
	}
	r.keys, r.tk, r.ti = ks, tk, ti
	return order
}

// A shape's children as runs: each distinct child label in the high 32
// bits, its count in the low, ascending — how a coded key, whose
// repeated labels are zero deltas, reads back cheaply.

// appendRuns appends the runs of the coded key key to dst.
func appendRuns(dst []uint64, key []byte) []uint64 {
	n, i := uvarintAt(key, 0)
	if n == 0 {
		return dst
	}
	kid := uint32(0)
	for i < len(key) {
		var d uint32
		d, i = uvarintAt(key, i)
		kid += d
		// The zero bytes that follow are repeats of kid: no other
		// uvarint has a zero byte.
		z := i
		for z+8 <= len(key) && binary.LittleEndian.Uint64(key[z:]) == 0 {
			z += 8
		}
		for z < len(key) && key[z] == 0 {
			z++
		}
		dst = append(dst, uint64(kid)<<32|uint64(1+z-i))
		i = z
	}
	return dst
}

// appendRunsKey appends the coded key of the shape whose children are
// runs to dst.
func appendRunsKey(dst []byte, runs []uint64) []byte {
	n := uint32(0)
	for _, r := range runs {
		n += uint32(r)
	}
	dst = appendUvarint(dst, n)
	prev := uint32(0)
	for _, r := range runs {
		dst = appendUvarint(dst, uint32(r>>32)-prev)
		prev = uint32(r >> 32)
		dst = append(dst, make([]byte, uint32(r)-1)...)
	}
	return dst
}
