package ned

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ned/internal/fsx"
	"ned/internal/graph"
	"ned/internal/tree"
)

// WriteSignatures serializes signatures as one line per signature:
// "<node> <k> <encoded tree>", plain text that round-trips through
// ReadSignatures, so extraction is paid once across sessions.
func WriteSignatures(w io.Writer, sigs []Signature) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# ned signatures v1: node k parentvector\n"); err != nil {
		return fmt.Errorf("ned: writing header: %w", err)
	}
	for _, s := range sigs {
		if _, err := fmt.Fprintf(bw, "%d %d %s\n", s.Node, s.K, tree.Encode(s.Tree)); err != nil {
			return fmt.Errorf("ned: writing signature of node %d: %w", s.Node, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("ned: flushing signatures: %w", err)
	}
	return nil
}

// MaxSignatureLine caps one serialized signature line: at ~7 bytes a
// tree node, trees of millions of nodes, yet a bound on corrupt input.
const MaxSignatureLine = 64 << 20

// ReadSignatures parses the WriteSignatures format. Lines longer than
// MaxSignatureLine yield an error naming the offending line rather than
// a silent truncation.
func ReadSignatures(r io.Reader) ([]Signature, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), MaxSignatureLine)
	var out []Signature
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		fields := strings.SplitN(line, " ", 3)
		if len(fields) < 2 {
			return nil, fmt.Errorf("ned: line %d: malformed signature %q", lineNo, line)
		}
		enc := ""
		if len(fields) == 3 {
			enc = fields[2]
		}
		node, k, t, err := ParseItemLine(lineNo, fields[0], fields[1], enc)
		if err != nil {
			return nil, err
		}
		out = append(out, Signature{Node: node, K: k, Tree: t})
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("ned: line %d: signature line exceeds %d bytes: %w", lineNo+1, MaxSignatureLine, err)
		}
		return nil, fmt.Errorf("ned: line %d: scanning signatures: %w", lineNo+1, err)
	}
	return out, nil
}

// DecodeTreeField decodes one serialized tree, mapping the "-"
// single-node placeholder back to the empty encoding.
func DecodeTreeField(enc string) (*tree.Tree, error) {
	if enc == "-" {
		enc = ""
	}
	return tree.Decode(enc)
}

// ParseItemLine parses the "<node> <k> <tree>" triple a signature line
// holds; errors name the offending line.
func ParseItemLine(lineNo int, nodeStr, kStr, enc string) (graph.NodeID, int, *tree.Tree, error) {
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("ned: line %d: bad node id: %w", lineNo, err)
	}
	k, err := strconv.Atoi(kStr)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("ned: line %d: bad k: %w", lineNo, err)
	}
	t, err := DecodeTreeField(enc)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("ned: line %d: %w", lineNo, err)
	}
	return graph.NodeID(node), k, t, nil
}

// SaveSignaturesFile writes signatures to a file crash-safely
// (fsx.WriteFileAtomic): a crash mid-save never tears a good file.
func SaveSignaturesFile(path string, sigs []Signature) error {
	return fsx.WriteFileAtomic(path, func(w io.Writer) error {
		return WriteSignatures(w, sigs)
	})
}

// LoadSignaturesFile reads signatures from a file.
func LoadSignaturesFile(path string) ([]Signature, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ned: %w", err)
	}
	defer f.Close()
	return ReadSignatures(f)
}
