package ned

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestCorpusStatsJSONSchema locks the wire schema of CorpusStats: the
// nedserve stats endpoint, nedstats -json, and monitoring dashboards
// all read these field names, so a rename must fail loudly here, not
// silently break a scraper.
func TestCorpusStatsJSONSchema(t *testing.T) {
	in := CorpusStats{
		Backend:          BackendBK,
		K:                3,
		Directed:         true,
		Workers:          4,
		Nodes:            100,
		Shards:           1,
		Built:            true,
		ShardNodes:       []int{100},
		ShardLockWaitNS:  []int64{150},
		ShardMutations:   []int64{9},
		ShardCloneBytes:  []int64{4096},
		Queries:          7,
		DistanceCalls:    1234,
		EarlyExits:       55,
		LowerBoundPrunes: 30,
		SizePrunes:       10,
		PaddingPrunes:    15,
		LabelPrunes:      5,

		PlanScans: 3,

		BlockCandidates:       500,
		BlockSizeSurvivors:    80,
		BlockPaddingSurvivors: 60,
		BlockLabelSurvivors:   40,

		SizeHist:  []int64{0, 4, 96},
		DepthHist: []int64{1, 99},
	}
	buf, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	const want = `{"backend":"bk","k":3,"directed":true,"workers":4,"nodes":100,` +
		`"shards":1,"built":true,"shard_nodes":[100],` +
		`"shard_lock_wait_ns":[150],"shard_mutations":[9],` +
		`"shard_clone_bytes":[4096],"plan_scans":3,"queries":7,` +
		`"distance_calls":1234,"early_exits":55,"lower_bound_prunes":30,` +
		`"size_prunes":10,"padding_prunes":15,"label_prunes":5,` +
		`"block_candidates":500,"block_size_survivors":80,` +
		`"block_padding_survivors":60,"block_label_survivors":40,` +
		`"size_hist":[0,4,96],"depth_hist":[1,99]}`
	if string(buf) != want {
		t.Errorf("CorpusStats JSON schema changed:\n got %s\nwant %s", buf, want)
	}

	var out CorpusStats
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the value:\n got %+v\nwant %+v", out, in)
	}
}

// TestCorpusStatsJSONTagsComplete guards against a new counter landing
// without a stable JSON name: every exported field must carry an
// explicit snake_case json tag.
func TestCorpusStatsJSONTagsComplete(t *testing.T) {
	typ := reflect.TypeOf(CorpusStats{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		tag := f.Tag.Get("json")
		if tag == "" || tag == "-" {
			t.Errorf("field %s has no json tag; the stats schema must name every counter", f.Name)
			continue
		}
		name := strings.Split(tag, ",")[0]
		if name == "" || strings.ToLower(name) != name {
			t.Errorf("field %s json name %q is not stable snake_case", f.Name, name)
		}
	}
}

// TestBackendTextRoundTrip pins the Backend <-> name mapping both ways,
// including the rejection of unknown names and out-of-range values.
func TestBackendTextRoundTrip(t *testing.T) {
	for _, b := range allBackends {
		text, err := b.MarshalText()
		if err != nil {
			t.Fatalf("%v MarshalText: %v", b, err)
		}
		var back Backend
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", text, err)
		}
		if back != b {
			t.Errorf("round trip %v -> %q -> %v", b, text, back)
		}
	}
	var b Backend
	if err := b.UnmarshalText([]byte("quadtree")); err == nil {
		t.Error("UnmarshalText accepted an unknown backend name")
	}
	if _, err := Backend(99).MarshalText(); err == nil {
		t.Error("MarshalText accepted an out-of-range backend")
	}
}
