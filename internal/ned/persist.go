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
// "<node> <k> <encoded tree>". The format is plain text, diff-friendly,
// and round-trips through ReadSignatures. Precomputing and persisting
// signatures amortizes BFS extraction across sessions — the pattern all
// the §13 query experiments rely on.
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

// maxSignatureLine caps how long one serialized signature line may be.
// A line is ~7 bytes per tree node, so 64 MiB accommodates signatures of
// several million nodes — far beyond any k-adjacent tree this library
// produces — while still bounding memory against corrupt input.
const maxSignatureLine = 64 << 20

// ReadSignatures parses the WriteSignatures format. Lines longer than
// maxSignatureLine yield an error naming the offending line rather than
// a silent truncation.
func ReadSignatures(r io.Reader) ([]Signature, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxSignatureLine)
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
		node, k, t, err := parseItemLine(lineNo, fields[0], fields[1], enc)
		if err != nil {
			return nil, err
		}
		out = append(out, Signature{Node: node, K: k, Tree: t})
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("ned: line %d: signature line exceeds %d bytes: %w", lineNo+1, maxSignatureLine, err)
		}
		return nil, fmt.Errorf("ned: line %d: scanning signatures: %w", lineNo+1, err)
	}
	return out, nil
}

// --- text corpus snapshots (import only) ---
//
// Builds before NEDSEG01 became the only written corpus format wrote a
// corpus as text: the signature format plus one header line of corpus
// metadata. This build writes none of it and reads all of it, so old
// files keep loading through ned.LoadCorpus:
//
//	# ned corpus v1 backend=vp k=3 directed=0 nodes=2
//	0 3 0,0,1
//	4 3 0,1
//
// Version 2 is the sharded manifest: the header additionally records
// the shard count, and the items are grouped into per-shard sections,
// each introduced by a comment naming the shard and its item count:
//
//	# ned corpus v2 backend=vp k=3 directed=0 shards=2 nodes=3
//	# shard 0 nodes=2
//	0 3 0,0,1
//	4 3 0,1
//	# shard 1 nodes=1
//	7 3 0,1,1
//
// Version 3 is a v2 manifest written by a build that could move nodes
// off their hash shard: the header gains the redirect bucket count and a
// comment line records the bucket -> shard redirect table:
//
//	# ned corpus v3 backend=vp k=3 directed=0 shards=3 base=2 nodes=3
//	# redirect 0,2
//	# shard 0 nodes=1
//	...
//
// Shard placement is derived (ShardOf), never trusted: a reader
// re-partitions the items by hash for whatever shard count it is
// configured with, so every version loads into any shard count,
// including one. The section counts exist so truncated sections fail
// loudly; a v3 file's base= and redirect line are checked for shape
// (one bucket per base, every bucket a declared shard) and then dropped.
//
// Directed corpora carry two encodings per line (outgoing then incoming
// tree); a single-node tree encodes as "-" so the field count stays
// fixed. ReadCorpusItems rejects versions it does not know, and —
// because headers and section markers are comments and item lines are
// valid signature lines — undirected snapshots still parse as plain
// signature files, while legacy signature files (no header) load as
// version-0 snapshots.
//
// Cascade profiles (Item.OutP/InP) were never part of the text formats:
// loaders compile them against a fresh dictionary (ProfileItems) after
// parsing, as ned.LoadCorpus does.

// snapshotPrefix starts the header line of every corpus snapshot.
const snapshotPrefix = "# ned corpus v"

// shardSectionPrefix starts a per-shard section marker in a v2 snapshot.
const shardSectionPrefix = "# shard "

// redirectPrefix starts the redirect-table line of a v3 snapshot.
const redirectPrefix = "# redirect "

// snapshotVersion is the newest text snapshot version this build reads.
const snapshotVersion = 3

// CorpusMeta is the header metadata of a corpus snapshot.
type CorpusMeta struct {
	Version  int    // format version; 0 means a legacy plain signature file
	Backend  string // flag-style backend name recorded at snapshot time
	K        int    // neighborhood depth shared by every item
	Directed bool   // whether items carry incoming trees too
	Shards   int    // shard count recorded by a v2 manifest; 0 before v2

	// nodes is the declared item count, checked against the parsed items
	// so truncated snapshots fail loudly.
	nodes int

	// base is the declared redirect bucket count of a v3 header.
	base int
}

// decodeTreeField decodes one serialized tree, mapping the "-"
// single-node placeholder back to the empty encoding. Shared by the
// signature and snapshot readers so the two formats cannot drift apart.
func decodeTreeField(enc string) (*tree.Tree, error) {
	if enc == "-" {
		enc = ""
	}
	return tree.Decode(enc)
}

// parseItemLine parses the "<node> <k> <tree>" triple that both the
// signature format and snapshot item lines start with. Errors name the
// offending line.
func parseItemLine(lineNo int, nodeStr, kStr, enc string) (graph.NodeID, int, *tree.Tree, error) {
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("ned: line %d: bad node id: %w", lineNo, err)
	}
	k, err := strconv.Atoi(kStr)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("ned: line %d: bad k: %w", lineNo, err)
	}
	t, err := decodeTreeField(enc)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("ned: line %d: %w", lineNo, err)
	}
	return graph.NodeID(node), k, t, nil
}

// ReadCorpusItems parses a corpus snapshot, or — when the input has no
// snapshot header — a legacy plain signature file, reported as Version
// 0 with Backend/K/Directed left for the caller to derive. Duplicate
// nodes, k values disagreeing with the header, wrong per-line field
// counts, undeclared versions, and header/item-count mismatches are all
// errors naming the offending line.
func ReadCorpusItems(r io.Reader) (CorpusMeta, []Item, error) {
	var meta CorpusMeta
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxSignatureLine)
	var items []Item
	seen := make(map[graph.NodeID]int)
	lineNo, contentLines := 0, 0
	// v2 shard-section bookkeeping: the open section's index, its
	// declared item count, and how many items it has produced so far.
	curShard, declared, sectionItems := -1, 0, 0
	// v3: whether the redirect line has been seen.
	haveRedirect := false
	closeSection := func() error {
		if curShard >= 0 && sectionItems != declared {
			return fmt.Errorf("ned: shard %d section declares %d nodes, found %d", curShard, declared, sectionItems)
		}
		return nil
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == '#' {
			if strings.HasPrefix(line, snapshotPrefix) {
				// A snapshot header is only legal as the very first
				// meaningful line. One appearing after items (or after
				// another header) means two snapshots were concatenated or
				// a file was garbled mid-write: half-parsing it as a
				// comment would silently serve a truncated corpus.
				if contentLines > 0 || meta.Version != 0 {
					return meta, nil, fmt.Errorf("ned: line %d: unexpected second snapshot header %q", lineNo, line)
				}
				m, err := parseSnapshotHeader(line)
				if err != nil {
					return meta, nil, fmt.Errorf("ned: line %d: %w", lineNo, err)
				}
				meta = m
			}
			if meta.Version >= 3 && strings.HasPrefix(line, redirectPrefix) {
				if haveRedirect {
					return meta, nil, fmt.Errorf("ned: line %d: duplicate redirect table", lineNo)
				}
				if curShard >= 0 {
					return meta, nil, fmt.Errorf("ned: line %d: redirect table after shard sections", lineNo)
				}
				if err := checkRedirectLine(line, meta.base, meta.Shards); err != nil {
					return meta, nil, fmt.Errorf("ned: line %d: %w", lineNo, err)
				}
				haveRedirect = true
			}
			if meta.Version >= 2 && strings.HasPrefix(line, shardSectionPrefix) {
				si, n, err := parseShardSection(line)
				if err != nil {
					return meta, nil, fmt.Errorf("ned: line %d: %w", lineNo, err)
				}
				if si != curShard+1 {
					return meta, nil, fmt.Errorf("ned: line %d: shard section %d out of order (want %d)", lineNo, si, curShard+1)
				}
				if err := closeSection(); err != nil {
					return meta, nil, err
				}
				curShard, declared, sectionItems = si, n, 0
			}
			continue
		}
		contentLines++
		if meta.Version >= 2 {
			if curShard < 0 {
				return meta, nil, fmt.Errorf("ned: line %d: item before any shard section", lineNo)
			}
			sectionItems++
		}
		fields := strings.Fields(line)
		want := 3
		if meta.Directed {
			want = 4
		}
		if meta.Version >= 1 && len(fields) != want {
			return meta, nil, fmt.Errorf("ned: line %d: snapshot item has %d fields, want %d", lineNo, len(fields), want)
		}
		if meta.Version == 0 && (len(fields) < 2 || len(fields) > 3) {
			return meta, nil, fmt.Errorf("ned: line %d: malformed signature %q", lineNo, line)
		}
		enc := ""
		if len(fields) >= 3 {
			enc = fields[2]
		}
		node, k, out, err := parseItemLine(lineNo, fields[0], fields[1], enc)
		if err != nil {
			return meta, nil, err
		}
		if meta.Version >= 1 && k != meta.K {
			return meta, nil, fmt.Errorf("ned: line %d: item k=%d disagrees with header k=%d", lineNo, k, meta.K)
		}
		if prev, dup := seen[node]; dup {
			return meta, nil, fmt.Errorf("ned: line %d: node %d already appeared on line %d", lineNo, node, prev)
		}
		seen[node] = lineNo
		if meta.Version >= 3 && !haveRedirect {
			return meta, nil, fmt.Errorf("ned: line %d: item before redirect table", lineNo)
		}
		it := Item{Node: node, K: k, Out: out}
		if meta.Directed {
			if it.In, err = decodeTreeField(fields[3]); err != nil {
				return meta, nil, fmt.Errorf("ned: line %d: incoming tree: %w", lineNo, err)
			}
		}
		items = append(items, it)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return meta, nil, fmt.Errorf("ned: line %d: snapshot line exceeds %d bytes: %w", lineNo+1, maxSignatureLine, err)
		}
		return meta, nil, fmt.Errorf("ned: line %d: scanning snapshot: %w", lineNo+1, err)
	}
	if meta.Version >= 1 && len(items) != meta.nodes {
		return meta, nil, fmt.Errorf("ned: snapshot truncated or padded: header declares %d nodes, found %d", meta.nodes, len(items))
	}
	if meta.Version >= 2 {
		if err := closeSection(); err != nil {
			return meta, nil, err
		}
		if curShard+1 != meta.Shards {
			return meta, nil, fmt.Errorf("ned: snapshot declares %d shards, found %d sections", meta.Shards, curShard+1)
		}
	}
	if meta.Version >= 3 && !haveRedirect {
		return meta, nil, fmt.Errorf("ned: v%d snapshot has no redirect table", meta.Version)
	}
	return meta, items, nil
}

// checkRedirectLine checks the shape of a v3 "# redirect 0,2,1" line:
// one bucket per declared base, each naming a declared shard.
func checkRedirectLine(line string, base, shards int) error {
	fields := strings.Split(strings.TrimPrefix(line, redirectPrefix), ",")
	if len(fields) != base {
		return fmt.Errorf("redirect table has %d buckets, header declares base=%d", len(fields), base)
	}
	for _, f := range fields {
		s, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || s < 0 || s >= shards {
			return fmt.Errorf("bad redirect bucket %q", f)
		}
	}
	return nil
}

// parseShardSection parses "# shard 3 nodes=17" into (3, 17).
func parseShardSection(line string) (shard, nodes int, err error) {
	rest := strings.TrimPrefix(line, shardSectionPrefix)
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		return 0, 0, fmt.Errorf("malformed shard section %q", line)
	}
	if shard, err = strconv.Atoi(fields[0]); err != nil || shard < 0 {
		return 0, 0, fmt.Errorf("bad shard index in %q", line)
	}
	val, ok := strings.CutPrefix(fields[1], "nodes=")
	if !ok {
		return 0, 0, fmt.Errorf("malformed shard section %q", line)
	}
	if nodes, err = strconv.Atoi(val); err != nil || nodes < 0 {
		return 0, 0, fmt.Errorf("bad shard node count %q", val)
	}
	return shard, nodes, nil
}

// parseSnapshotHeader parses "# ned corpus v1 backend=vp k=3 directed=0
// nodes=5" into metadata, rejecting unknown versions and malformed or
// missing fields.
func parseSnapshotHeader(line string) (CorpusMeta, error) {
	var meta CorpusMeta
	rest := strings.TrimPrefix(line, snapshotPrefix)
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return meta, fmt.Errorf("malformed snapshot header %q", line)
	}
	v, err := strconv.Atoi(fields[0])
	if err != nil || v < 1 {
		return meta, fmt.Errorf("malformed snapshot version in %q", line)
	}
	if v > snapshotVersion {
		return meta, fmt.Errorf("snapshot version %d not supported (this build reads up to v%d)", v, snapshotVersion)
	}
	meta.Version = v
	got := map[string]bool{}
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return meta, fmt.Errorf("malformed snapshot header field %q", f)
		}
		got[key] = true
		switch key {
		case "backend":
			meta.Backend = val
		case "k":
			if meta.K, err = strconv.Atoi(val); err != nil || meta.K < 1 {
				return meta, fmt.Errorf("bad snapshot k %q", val)
			}
		case "directed":
			switch val {
			case "0":
			case "1":
				meta.Directed = true
			default:
				return meta, fmt.Errorf("bad snapshot directed flag %q", val)
			}
		case "nodes":
			if meta.nodes, err = strconv.Atoi(val); err != nil || meta.nodes < 0 {
				return meta, fmt.Errorf("bad snapshot node count %q", val)
			}
		case "shards":
			if meta.Shards, err = strconv.Atoi(val); err != nil || meta.Shards < 1 {
				return meta, fmt.Errorf("bad snapshot shard count %q", val)
			}
		case "base":
			if meta.base, err = strconv.Atoi(val); err != nil || meta.base < 1 {
				return meta, fmt.Errorf("bad snapshot redirect base %q", val)
			}
		}
	}
	required := []string{"backend", "k", "directed", "nodes"}
	if meta.Version >= 2 {
		required = append(required, "shards")
	}
	if meta.Version >= 3 {
		required = append(required, "base")
	}
	for _, key := range required {
		if !got[key] {
			return meta, fmt.Errorf("snapshot header missing %s=", key)
		}
	}
	return meta, nil
}

// SaveSignaturesFile writes signatures to a file, crash-safely: the
// content lands in <path>.tmp and is fsynced and renamed over the
// target, so a crash mid-save can never tear a previous good file.
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
