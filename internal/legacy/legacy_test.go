package legacy

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io/fs"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ned/internal/graph"
	"ned/internal/ned"
	"ned/internal/segment"
	"ned/internal/tree"
)

// The fixtures an earlier build wrote, one per legacy format, and the
// durable directories whose checkpoints are NEDSEG01, NEDSEG02 or NEDSEG03.
var (
	textFixtures = []string{
		"../ned/testdata/corpus_v1.golden", "../ned/testdata/corpus_v1_directed.golden", "../ned/testdata/corpus_v2.golden",
		"../../testdata/corpus_v3_rebalanced.nedcorpus",
	}
	segmentFixtures = []string{"../segment/testdata/golden-v1.nedseg", "../../testdata/rebalanced.nedseg", "../segment/testdata/golden-v2.nedseg", "../segment/testdata/golden-v3.nedseg"}
	durableFixtures = []string{"../../testdata/rebalanced_durable", "../../testdata/v1wal_durable/undirected", "../../testdata/v1wal_durable/directed", "../../testdata/v2_durable", "../../testdata/v3_durable"}
)

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// upgrade converts src, failing the test on an error.
func upgrade(t testing.TB, label string, src []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	if _, err := Upgrade(&out, src); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return out.Bytes()
}

// signatureFile is a header-less signature file, the version-0 text
// corpus: ned.WriteSignatures over a small random graph at k = 2.
func signatureFile(t testing.TB) []byte {
	rng := rand.New(rand.NewSource(917))
	b := graph.NewBuilder(30, false)
	for range 60 {
		b.AddEdge(graph.NodeID(rng.Intn(30)), graph.NodeID(rng.Intn(30)))
	}
	g := b.Build()
	nodes := make([]graph.NodeID, g.NumNodes())
	for v := range nodes {
		nodes[v] = graph.NodeID(v)
	}
	var buf bytes.Buffer
	if err := ned.WriteSignatures(&buf, ned.Signatures(g, nodes, 2)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Every legacy fixture converts to a NEDSEG04 segment the engine reads,
// holding the fixture's nodes, and converting the result again changes
// no byte.
func TestUpgradeConvertsEveryFixture(t *testing.T) {
	inputs := map[string][]byte{"signature file": signatureFile(t)}
	for _, path := range append(textFixtures, segmentFixtures...) {
		inputs[path] = readFile(t, path)
	}
	for label, src := range inputs {
		out := upgrade(t, label, src)
		meta, rows, _, _, err := segment.ReadRows(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("%s: the converted segment does not load: %v", label, err)
		}
		if meta.Items == 0 || rows.Len() != meta.Items {
			t.Errorf("%s: converted to %d rows, meta declares %d", label, rows.Len(), meta.Items)
		}
		if again := upgrade(t, label+" converted", out); !bytes.Equal(again, out) {
			t.Errorf("%s: converting the converted segment changed it", label)
		}
	}
}

// UpgradeDir rewrites each NEDSEG01, NEDSEG02 or NEDSEG03 checkpoint of a
// durable directory as NEDSEG04, reporting both sizes, leaves every log
// byte-identical, and a rerun changes no byte.
func TestUpgradeDirConvertsCheckpointsOnly(t *testing.T) {
	for _, src := range durableFixtures {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
			t.Fatal(err)
		}
		before := dirBytes(t, dir)
		done, err := UpgradeDir(dir)
		if err != nil || len(done) != 1 {
			t.Fatalf("%s: UpgradeDir rewrote %v, err %v; want the one checkpoint", src, done, err)
		}
		after := dirBytes(t, dir)
		if c := done[0]; c.Before != int64(len(before[c.Path])) || c.After != int64(len(after[c.Path])) ||
			(c.Format != magicV1 && c.Format != magicV2 && c.Format != magicV3) {
			t.Errorf("%s: UpgradeDir reports %+v, want %d -> %d bytes from a legacy segment",
				src, c, len(before[c.Path]), len(after[c.Path]))
		}
		for name, b := range after {
			switch {
			case filepath.Ext(name) == ".nedseg":
				if !segment.IsSegment(b) {
					t.Errorf("%s: %s starts %q after UpgradeDir", src, name, b[:8])
				}
			case !bytes.Equal(b, before[name]):
				t.Errorf("%s: UpgradeDir changed %s", src, name)
			}
		}
		if len(after) != len(before) {
			t.Errorf("%s: %d files before UpgradeDir, %d after", src, len(before), len(after))
		}
		if done, err := UpgradeDir(dir); err != nil || len(done) != 0 {
			t.Errorf("%s: a rerun rewrote %v, err %v", src, done, err)
		}
		if again := dirBytes(t, dir); !maps.EqualFunc(again, after, bytes.Equal) {
			t.Errorf("%s: a rerun changed the directory", src)
		}
	}
}

// dirBytes maps every file under dir to its bytes.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		files[path], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// FuzzUpgrade: the legacy readers take files no build produces any more,
// so arbitrary bytes must come back as an error or as a consistent
// result, never a panic. A text input ReadCorpusItems accepts is a
// consistent item list; an input Upgrade accepts converts to a segment
// the engine reads. Seeds: every checked-in text snapshot, v3 included,
// then the NEDSEG01 golden, its prefix, and its trees rewritten into
// columns NEDSEG02 cannot express (v1Cases), then the NEDSEG02 golden,
// its prefix, and the NEDSEG02 checkpoint of testdata/v2_durable, then
// the NEDSEG03 golden, its prefix, and the NEDSEG03 checkpoint of
// testdata/v3_durable.
func FuzzUpgrade(f *testing.F) {
	for _, path := range textFixtures {
		f.Add(readFile(f, path))
	}
	for _, c := range v1Cases(f) {
		f.Add(c.blob)
	}
	golden := readFile(f, segmentFixtures[0])
	f.Add(golden)
	f.Add(golden[:40])
	golden = readFile(f, segmentFixtures[2])
	f.Add(golden)
	f.Add(golden[:40])
	f.Add(readFile(f, durableFixtures[3]+"/checkpoint-00000000.nedseg"))
	golden = readFile(f, segmentFixtures[3])
	f.Add(golden)
	f.Add(golden[:40])
	f.Add(readFile(f, durableFixtures[4]+"/checkpoint-00000000.nedseg"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if meta, items, err := ReadCorpusItems(bytes.NewReader(data)); err != nil {
			if items != nil {
				t.Fatalf("error %v came with %d items", err, len(items))
			}
		} else {
			seen := make(map[graph.NodeID]bool, len(items))
			for _, it := range items {
				if seen[it.Node] {
					t.Fatalf("accepted input yields node %d twice", it.Node)
				}
				seen[it.Node] = true
				if it.Out == nil || meta.Directed != (it.In != nil) {
					t.Fatalf("node %d: out=%v in=%v on a directed=%v snapshot", it.Node, it.Out != nil, it.In != nil, meta.Directed)
				}
				if meta.Version >= 1 && it.K != meta.K {
					t.Fatalf("node %d: k=%d under header k=%d", it.Node, it.K, meta.K)
				}
			}
		}
		var out bytes.Buffer
		if _, err := Upgrade(&out, data); err != nil {
			return
		}
		if _, _, _, _, err := segment.ReadRows(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("Upgrade accepted the input, but its output does not load: %v", err)
		}
	})
}

// v1Case is the NEDSEG01 golden with one word of a tree's columns
// rewritten under a recomputed checksum, and what the error of its
// conversion must mention.
type v1Case struct {
	what, want string
	blob       []byte
}

// v1Cases rewrites the first tree of the NEDSEG01 golden whose height is
// 2 or more and whose level 1 holds two distinct labels: each case
// checksums, but its columns are ones NEDSEG02 cannot express (the same
// cases as internal/segment's V1Cases, which seed FuzzSegmentRead).
func v1Cases(t testing.TB) []v1Case {
	t.Helper()
	blob := readFile(t, segmentFixtures[0])
	var shapes uint32 // the dictionary section's shape count
	for off := len(magicV1); off < len(blob); {
		n := int(binary.LittleEndian.Uint64(blob[off+1:]))
		if blob[off] == segment.SecDict {
			shapes = binary.LittleEndian.Uint32(blob[off+9:])
		}
		if blob[off] != segment.SecShard {
			off += 9 + n + 4
			continue
		}
		at, words := off+9, make([]uint32, n/4)
		for i := range words {
			words[i] = binary.LittleEndian.Uint32(blob[at+4*i:])
		}
		for pos, i := 2, 0; i < int(words[1]); i++ {
			trees := 1 + int(words[pos+2]&1)
			pos += 3
			for range trees {
				size := int(words[pos])
				parents := make([]int32, size)
				for v := range parents {
					parents[v] = int32(words[pos+1+v])
				}
				tr := tree.MustNew(parents)
				// The word indices of the columns of tree tr.
				labels, perm, kids := pos+1+size, pos+1+2*size, pos+1+3*size
				lo, _ := tr.LevelRange(1)
				l1 := labels + int(lo)
				if tr.Height() < 2 || tr.LevelSize(1) < 2 || words[l1] == words[l1+1] {
					pos += 4 * size
					continue
				}
				set := func(blob []byte, i int, v uint32) []byte {
					out := bytes.Clone(blob)
					binary.LittleEndian.PutUint32(out[at+4*i:], v)
					end := at + 4*len(words)
					binary.LittleEndian.PutUint32(out[end:], crc32.Checksum(out[at:end], crc32.MakeTable(crc32.Castagnoli)))
					return out
				}
				root := words[labels]
				lastRootKid := kids + tr.NumChildren(0) - 1
				return []v1Case{
					{"a label outside the dictionary", "outside the dictionary", set(blob, labels, shapes)},
					{"a negative label", "outside the dictionary", set(blob, labels, math.MaxUint32)},
					{"a perm entry outside its level", "perm of level 1 is not a permutation", set(blob, perm+int(lo), uint32(tr.LevelSize(1)))},
					{"labels unsorted within a level", "labels of level 1 not sorted",
						set(set(blob, l1, words[l1+1]), l1+1, words[l1])},
					{"a non-leaf label on the deepest level", "deepest level", set(blob, labels+size-1, root)},
					{"a non-leaf kid on level h-1", "kid run", set(blob, kids+size-2, root)},
					{"a perm that repeats a node", "perm of level 1 is not a permutation", set(blob, perm+int(lo)+1, words[perm+int(lo)])},
					// Still sorted and in the dictionary: the root's largest kid
					// becomes the largest shape, which is not the root's kid.
					{"a kid run that is not its label's shape", "kid run", set(blob, lastRootKid, shapes-1)},
				}
			}
		}
		break
	}
	t.Fatal("the NEDSEG01 golden's first item table holds no tree to rewrite")
	return nil
}
