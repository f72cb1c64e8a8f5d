package legacy

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ned/internal/graph"
	"ned/internal/ned"
)

// Text corpora. Builds before NEDSEG01 wrote a corpus as the signature
// format (ned.WriteSignatures) under one header line of metadata. Version
// 2 groups the items into shard sections and version 3 adds a redirect
// table (v1 has neither, and v2 no base=):
//
//	# ned corpus v3 backend=vp k=3 directed=0 shards=2 base=2 nodes=3
//	# redirect 0,1
//	# shard 0 nodes=2
//	0 3 0,0,1
//	4 3 0,1
//	# shard 1 nodes=1
//	7 3 0,1,1
//
// A directed corpus's item line carries the incoming tree as a fourth
// field, and a one-node tree encodes as "-". Placement is never trusted:
// the section counts are checked, so a truncated section fails loudly,
// a redirect line is checked for shape (one bucket per base, each a
// declared shard), and Upgrade files the items by hash. A file without a
// header is a signature file, read as version 0.

const (
	snapshotPrefix     = "# ned corpus v" // starts every header line
	shardSectionPrefix = "# shard "       // starts a v2 shard section marker
	redirectPrefix     = "# redirect "    // starts a v3 redirect line
	snapshotVersion    = 3                // the newest text version
)

// CorpusMeta is the header metadata of a text corpus.
type CorpusMeta struct {
	Version  int    // format version; 0 means a plain signature file
	Backend  string // flag-style backend name recorded at snapshot time
	K        int    // neighborhood depth shared by every item
	Directed bool   // whether items carry incoming trees too
	Shards   int    // shard count recorded by a v2 manifest; 0 before v2

	nodes, base int // the declared item count and v3 redirect bucket count
}

// ReadCorpusItems parses a text corpus, or a signature file (Version 0,
// K and Directed left for the caller). Duplicate nodes, k values against
// the header, wrong field counts, unknown versions and item counts
// against the header are errors naming the offending line.
func ReadCorpusItems(r io.Reader) (CorpusMeta, []ned.Item, error) {
	var meta CorpusMeta
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), ned.MaxSignatureLine)
	var items []ned.Item
	seen := make(map[graph.NodeID]int)
	lineNo, contentLines := 0, 0
	// The open v2 section, its declared and its read item count; whether
	// a v3 redirect line was read.
	curShard, declared, sectionItems, haveRedirect := -1, 0, 0, false
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
				// Only the first meaningful line: a later one means two
				// files concatenated or one garbled mid-write.
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
		node, k, out, err := ned.ParseItemLine(lineNo, fields[0], fields[1], enc)
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
		it := ned.Item{Node: node, K: k, Out: out}
		if meta.Directed {
			if it.In, err = ned.DecodeTreeField(fields[3]); err != nil {
				return meta, nil, fmt.Errorf("ned: line %d: incoming tree: %w", lineNo, err)
			}
		}
		items = append(items, it)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return meta, nil, fmt.Errorf("ned: line %d: snapshot line exceeds %d bytes: %w", lineNo+1, ned.MaxSignatureLine, err)
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
	fields := strings.Fields(strings.TrimPrefix(line, shardSectionPrefix))
	val, ok := "", len(fields) == 2
	if ok {
		val, ok = strings.CutPrefix(fields[1], "nodes=")
	}
	if !ok {
		return 0, 0, fmt.Errorf("malformed shard section %q", line)
	}
	if shard, err = strconv.Atoi(fields[0]); err != nil || shard < 0 {
		return 0, 0, fmt.Errorf("bad shard index in %q", line)
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
	fields := strings.Fields(strings.TrimPrefix(line, snapshotPrefix))
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
	// The integer fields: where each goes, its least value, its name.
	ints := map[string]struct {
		v    *int
		min  int
		what string
	}{"k": {&meta.K, 1, "k"}, "nodes": {&meta.nodes, 0, "node count"},
		"shards": {&meta.Shards, 1, "shard count"}, "base": {&meta.base, 1, "redirect base"}}
	got := map[string]bool{}
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return meta, fmt.Errorf("malformed snapshot header field %q", f)
		}
		got[key] = true
		switch f, isInt := ints[key]; {
		case key == "backend":
			meta.Backend = val
		case key == "directed" && (val == "0" || val == "1"):
			meta.Directed = val == "1"
		case key == "directed":
			return meta, fmt.Errorf("bad snapshot directed flag %q", val)
		case isInt:
			if *f.v, err = strconv.Atoi(val); err != nil || *f.v < f.min {
				return meta, fmt.Errorf("bad snapshot %s %q", f.what, val)
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
