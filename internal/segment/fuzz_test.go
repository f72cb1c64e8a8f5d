package segment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay throws arbitrary bytes at the WAL replay path, seeded
// with the three golden logs (version-1, -2 and -3 frames), all three
// in one log as an older build's file resumed by this one's, and each
// version-2 and -3 frame torn by one byte: it must never panic, a
// non-error replay's valid prefix must re-replay to the same records
// (the truncate-then-resume invariant OpenWALAt relies on), and valid
// must never exceed the input.
func FuzzWALReplay(f *testing.F) {
	var golden []byte
	if b, err := os.ReadFile(filepath.Join("testdata", "golden-wal.log")); err == nil {
		golden = b
	}
	f.Add(golden)
	mixed := append([]byte(nil), golden...)
	for _, name := range []string{"golden-wal-v2.log", "golden-wal-v3.log"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		for _, end := range walFrameBounds(b) {
			f.Add(b[:end-1]) // each frame torn by one byte
		}
		mixed = append(mixed, b...)
	}
	f.Add(mixed)
	for _, cut := range []int{0, 1, 7, 8, 9, 20} {
		if cut <= len(golden) {
			f.Add(golden[:cut])
		}
	}
	if len(golden) > 0 {
		mut := append([]byte(nil), golden...)
		mut[len(mut)/2] ^= 0xFF
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})
	// Injected-fault residue: the frame shapes the faultfs chaos tests
	// leave on disk — short writes tearing a frame at arbitrary points,
	// a torn frame followed by a clean one (the wedge-bug shape), and a
	// half-overwritten final frame.
	if len(golden) > 0 {
		// Every frame torn at its midpoint (short write of that frame).
		frames := walFrameBounds(golden)
		prev := int64(0)
		for _, end := range frames {
			mid := prev + (end-prev)/2
			f.Add(append([]byte(nil), golden[:mid]...))
			// Torn frame followed by intact later frames: mid-file
			// corruption, must fail loudly — but never panic.
			torn := append([]byte(nil), golden[:mid]...)
			torn = append(torn, golden[end:]...)
			f.Add(torn)
			prev = end
		}
		// A final frame whose first half was overwritten with zeros (out
		// of order page writeback).
		if last := len(frames); last > 1 {
			start := frames[last-2]
			smashed := append([]byte(nil), golden...)
			for i := start; i < start+(frames[last-1]-start)/2; i++ {
				smashed[i] = 0
			}
			f.Add(smashed)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, valid, err := DecodeWAL(b)
		if valid < 0 || valid > int64(len(b)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(b))
		}
		if err != nil {
			return
		}
		recs2, valid2, err2 := DecodeWAL(b[:valid])
		if err2 != nil || valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("valid prefix does not re-replay cleanly: %d/%d records, %d/%d bytes, err %v",
				len(recs2), len(recs), valid2, valid, err2)
		}
	})
}

// walFrameBounds returns each intact frame's end offset in a clean log
// image (for carving fuzz seeds at frame-relative positions).
func walFrameBounds(b []byte) []int64 {
	var bounds []int64
	off := int64(0)
	for int(off)+8 <= len(b) {
		plen := int64(uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24)
		end := off + 8 + plen
		if end > int64(len(b)) {
			break
		}
		bounds = append(bounds, end)
		off = end
	}
	return bounds
}

// FuzzSegmentRead only asserts the reader never panics or succeeds on
// garbage that isn't byte-identical to a real segment's semantics —
// i.e. it must not crash; errors are expected. It is seeded with the
// NEDSEG04 golden, its prefix, the golden with one uvarint of an item
// table rewritten under recomputed checksums, so mutations start from
// tables that reach the label checks, or that declare more rows or
// stored labels than they hold, the golden with one uvarint made
// malformed (HostileUvarints), the golden with a dictionary that shares
// more labels than the shape before holds, whose child reaches its
// shape, that repeats a shape or whose count runs past it, or a graph
// whose gap runs past its nodes or whose count runs past it (badDicts);
// and with the NEDSEG03, NEDSEG02 and NEDSEG01 goldens, their prefixes
// and the NEDSEG01 golden's rewritten trees (V1Cases), bytes of earlier
// builds that Read must reject and whose mutations reach the decoder
// once their magic flips. internal/legacy's fuzz target converts the
// same legacy seeds.
func FuzzSegmentRead(f *testing.F) {
	for _, c := range V1Cases(f) {
		f.Add(c.Blob)
	}
	for _, name := range []string{"golden.nedseg", "golden-v3.nedseg", "golden-v2.nedseg", "golden-v1.nedseg"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:40])
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.nedseg"))
	if err != nil {
		f.Fatal(err)
	}
	for ti := 0; ; ti++ {
		types, _ := sections(golden)
		if ti == bytes.Count(types, []byte{SecShard}) {
			break
		}
		n := len(tableWords(golden, ti))
		for _, i := range []int{1, 2, 3, 5, n/2 + 1} {
			if i < n {
				f.Add(rewrite(golden, ti, i, 0))
				f.Add(rewrite(golden, ti, i, 1<<31|3))
			}
		}
		// More rows, and a first tree of more stored labels, than the
		// table holds.
		f.Add(rewrite(golden, ti, 0, 1<<28))
		f.Add(rewrite(golden, ti, 2, 1<<30))
	}
	for _, c := range HostileUvarints(f) {
		f.Add(c.Blob)
	}
	for _, c := range badDicts(f) {
		f.Add(c.Blob)
	}
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		Read(bytes.NewReader(b)) // must not panic; errors are the expected outcome
	})
}
