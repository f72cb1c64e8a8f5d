package ned

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"ned/internal/graph"
	"ned/internal/tree"
)

// TestSignaturesRoundTripLarge serializes a signature whose encoded line
// is far past the old 1 MiB scanner cap (which used to fail the whole
// read) and checks it survives a round trip bit-for-bit.
func TestSignaturesRoundTripLarge(t *testing.T) {
	// A 600k-node star encodes as ~1.2 MB of "0," repetitions.
	const n = 600_000
	parent := make([]int32, n)
	parent[0] = -1
	big := tree.MustNew(parent)
	sigs := []Signature{
		{Node: 7, K: 3, Tree: big},
		{Node: 8, K: 3, Tree: tree.Path(5)},
	}
	var buf bytes.Buffer
	if err := WriteSignatures(&buf, sigs); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 1<<20 {
		t.Fatalf("test line only %d bytes; expected to exceed the old 1 MiB cap", buf.Len())
	}
	got, err := ReadSignatures(&buf)
	if err != nil {
		t.Fatalf("ReadSignatures: %v", err)
	}
	if len(got) != len(sigs) {
		t.Fatalf("got %d signatures, want %d", len(got), len(sigs))
	}
	for i, g := range got {
		if g.Node != sigs[i].Node || g.K != sigs[i].K {
			t.Errorf("signature %d header mismatch: %+v", i, g)
		}
		if !tree.Isomorphic(g.Tree, sigs[i].Tree) || g.Tree.Size() != sigs[i].Tree.Size() {
			t.Errorf("signature %d tree did not round-trip", i)
		}
	}
}

// TestReadSignaturesTooLongNamesLine: a line exceeding the cap must
// produce an error naming the offending line, not a silent truncation.
func TestReadSignaturesTooLongNamesLine(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# header\n")
	sb.WriteString("1 2 0\n")
	sb.WriteString("2 2 ")
	sb.WriteString(strings.Repeat("0,", MaxSignatureLine/2+8))
	sb.WriteString("\n")
	_, err := ReadSignatures(strings.NewReader(sb.String()))
	if err == nil {
		t.Fatal("expected an error for an over-long line")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error does not name the offending line: %v", err)
	}
	if !strings.Contains(err.Error(), "too long") && !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("error does not explain the length cap: %v", err)
	}
}

func TestReadSignaturesMalformedNamesLine(t *testing.T) {
	in := "# header\n1 2 0\nnot-a-number 2 0\n"
	_, err := ReadSignatures(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("malformed line not named: %v", err)
	}
}

// TestSnapshotParsesAsSignatureFile: undirected corpus snapshots are
// valid signature files — including the "-" placeholder a single-node
// tree serializes as, which ReadSignatures must accept too.
func TestSnapshotParsesAsSignatureFile(t *testing.T) {
	snap := "# ned corpus v1 backend=vp k=2 directed=0 nodes=3\n0 2 0,0,1\n3 2 -\n7 2 0,1\n"
	sigs, err := ReadSignatures(strings.NewReader(snap))
	if err != nil {
		t.Fatalf("ReadSignatures(snapshot): %v", err)
	}
	if len(sigs) != 3 {
		t.Fatalf("got %d signatures, want 3", len(sigs))
	}
	if sigs[1].Node != 3 || sigs[1].Tree.Size() != 1 {
		t.Errorf("placeholder line parsed as node %d size %d, want node 3 size 1",
			sigs[1].Node, sigs[1].Tree.Size())
	}
}

// TestSaveSignaturesFileAtomic: a save failure (here: the target path
// is a directory, so the final rename fails) must leave no tmp residue,
// and a successful save over an existing file replaces it wholesale.
func TestSaveSignaturesFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/sigs.txt"
	sigs := []Signature{{Node: 1, K: 2, Tree: tree.Path(3)}}
	if err := SaveSignaturesFile(path, sigs); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind: %v", err)
	}
	// Target is an existing directory: the rename must fail, the tmp
	// file must be cleaned up, and the directory must survive.
	sub := dir + "/taken"
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SaveSignaturesFile(sub, sigs); err == nil {
		t.Fatal("saving over a directory succeeded")
	}
	if _, err := os.Stat(sub + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind after failure: %v", err)
	}
	if fi, err := os.Stat(sub); err != nil || !fi.IsDir() {
		t.Fatalf("target directory damaged: %v", err)
	}
}

func TestSignaturesFileRoundTrip(t *testing.T) {
	g := randomTestGraph(40, 90, 21)
	var nodes []graph.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		nodes = append(nodes, graph.NodeID(v))
	}
	sigs := Signatures(g, nodes, 2)
	path := t.TempDir() + "/sigs.txt"
	if err := SaveSignaturesFile(path, sigs); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSignaturesFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sigs) {
		t.Fatalf("got %d signatures, want %d", len(got), len(sigs))
	}
	for i := range got {
		if fmt.Sprint(got[i].Node, got[i].K, tree.Encode(got[i].Tree)) !=
			fmt.Sprint(sigs[i].Node, sigs[i].K, tree.Encode(sigs[i].Tree)) {
			t.Fatalf("signature %d did not round-trip", i)
		}
	}
}
