package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzGraphSpecDecode checks the hand scan of create and updategraph
// bodies against encoding/json, on bodies decoded into a GraphSpec and
// into a CreateRequest that already hold values: whenever decodePlain
// accepts a body, json.Unmarshal accepts it too and decodes the same
// value, and otherwise decodePlain changes nothing; and decodeBody, the
// server's path, accepts and rejects exactly what a json.Decoder does,
// with the same value.
func FuzzGraphSpecDecode(f *testing.F) {
	for _, seed := range []string{
		`{"nodes":3,"edges":[[0,1],[1,2]]}`,
		`{"nodes":3,"directed":true,"edges":[]}`,
		" {\t\"nodes\" :\n3 ,\r\"edges\" : [ [ 0 , 1 ] , [1,2] ] } ",
		`{"nodes":3,"edges":[[0,1.5]]}`,
		`{"nodes":1e2,"edges":[[0,1E0]]}`,
		`{"nodes":-1,"edges":[[-1,2],[-0,0]]}`,
		`{"nodes":00}`,
		`{"nodes":9223372036854775807}`,
		`{"nodes":99999999999999999999}`,
		`{"nodes":123456789012345678}`,
		`{"nodes":3,"edges":[[0,1,2],[0],[]]}`,
		`{"nodes":3,"edges":[[[0],1]]}`,
		`{"nodes":3,"edges":[[0,1]],"extra":{"a":[1,{"b":null}]}}`,
		`{"Nodes":3,"EDGES":[[0,1]]}`,
		`{"nodes":3,"nodes":4}`,
		`{"nodes":3,"edges":null}`,
		`{"nodes":true,"directed":1}`,
		`{"directed":truex}`,
		`null`, `[]`, `"x"`, ``, `{}`,
		`{"nodes":3,"edges":[[0,1]]`,
		`{"nodes":3,"edges":[[0,`,
		`{"nodes":3} trailing`,
		`{"nodes":3}{"nodes":4}`,
		`{"name":"a","k":3,"backend":"pruned","shards":2,"workers":2,"graph":{"nodes":2,"edges":[[0,1]]}}`,
		`{"name":"aA","graph":null}`,
		`{"name":"é","dataset":"PGP","scale":0.5,"seed":-5}`,
		`{"nodes_subset":[1,2],"snapshot_path":"/x","directed":false}`,
		`{"graph":{"nodes":2},"graph":{"edges":[]}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPlain(t, data, func() plainDecoder { return &GraphSpec{Nodes: 7, Directed: true, Edges: [][2]int{{1, 2}}} })
		checkPlain(t, data, func() plainDecoder {
			return &CreateRequest{K: 9, NodesSubset: []int{4}, Graph: &GraphSpec{Nodes: 5, Edges: [][2]int{{3, 4}}}}
		})
	})
}

// checkPlain checks one body against encoding/json on the values fresh
// returns, one per decode.
func checkPlain(t *testing.T, data []byte, fresh func() plainDecoder) {
	t.Helper()
	got := fresh()
	if got.decodePlain(data) {
		want := fresh()
		if err := json.Unmarshal(data, want); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: scanned as %+v, encoding/json gives %+v (%v)", data, got, want, err)
		}
	} else if !reflect.DeepEqual(got, fresh()) {
		t.Fatalf("%q: a rejected scan changed the value to %+v", data, got)
	}
	got, want := fresh(), fresh()
	errGot := decodeBody(data, got)
	errWant := json.NewDecoder(bytes.NewReader(data)).Decode(want)
	if (errGot == nil) != (errWant == nil) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decoded %+v (%v), a json.Decoder %+v (%v)", data, got, errGot, want, errWant)
	}
}
