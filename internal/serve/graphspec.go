package serve

import "bytes"

// This file decodes the bodies that carry an inline graph, create and
// updategraph, whose edge list is most of their bytes. encoding/json
// scans a body once to find its end, scans the edge list again, and
// walks [][2]int by reflection; a hand scan of the same bytes costs a
// fraction of that. So a body in the plain form every client sends —
// an object whose keys are the request's own, each at most once, spelt
// as its field tag spells it; strings of printable ASCII without
// escapes; integers without fraction or exponent; edges as two-integer
// arrays — is scanned here. Anything else, from an unknown key to a
// float or a null, goes to encoding/json, which decides: a body is
// accepted and rejected as before, and decodes to the same value.

// plainDecoder is a request that scans its plain form (decodePlain):
// when b is one, it sets the fields b names, as encoding/json would,
// and reports true; otherwise it changes nothing and reports false.
type plainDecoder interface {
	decodePlain(b []byte) bool
}

func (gs *GraphSpec) decodePlain(b []byte) bool {
	s := plainScanner{b: b}
	out := *gs
	if !s.graph(&out) || !s.end() {
		return false
	}
	*gs = out
	return true
}

func (cr *CreateRequest) decodePlain(b []byte) bool {
	s := plainScanner{b: b}
	out := *cr
	ok := s.object(func(key string) bool {
		switch key {
		case "name":
			return s.str(&out.Name)
		case "k":
			return s.int(&out.K)
		case "backend":
			return s.str(&out.Backend)
		case "shards":
			return s.int(&out.Shards)
		case "workers":
			return s.int(&out.Workers)
		case "directed":
			return s.bool(&out.Directed)
		case "nodes_subset":
			return s.ints(&out.NodesSubset)
		case "graph":
			var g GraphSpec
			if out.Graph != nil {
				g = *out.Graph
			}
			out.Graph = &g
			return s.graph(&g)
		case "snapshot_path":
			return s.str(&out.SnapshotPath)
		case "dataset":
			return s.str(&out.Dataset)
		case "seed":
			var seed int
			ok := s.int(&seed)
			out.Seed = int64(seed)
			return ok
		}
		return false
	})
	if !ok || !s.end() {
		return false
	}
	*cr = out
	return true
}

// plainScanner scans the plain form from b; pos is the next byte. A
// method that returns false has met something outside the plain form,
// and the scan is abandoned.
type plainScanner struct {
	b   []byte
	pos int
}

// graph scans a graph spec into gs.
func (s *plainScanner) graph(gs *GraphSpec) bool {
	return s.object(func(key string) bool {
		switch key {
		case "nodes":
			return s.int(&gs.Nodes)
		case "directed":
			return s.bool(&gs.Directed)
		case "edges":
			return s.edges(&gs.Edges)
		}
		return false
	})
}

// object scans an object, handing each key to member, which scans its
// value. A key seen twice is outside the plain form, since the last
// would win.
func (s *plainScanner) object(member func(key string) bool) bool {
	if !s.byte('{') {
		return false
	}
	var seen []string
	for first := true; ; first = false {
		if s.byte('}') {
			return true
		}
		if !first && !s.byte(',') {
			return false
		}
		var key string
		if !s.str(&key) || !s.byte(':') {
			return false
		}
		for _, k := range seen {
			if k == key {
				return false
			}
		}
		seen = append(seen, key)
		if !member(key) {
			return false
		}
	}
}

// end skips trailing whitespace and reports whether that is all.
func (s *plainScanner) end() bool {
	s.space()
	return s.pos == len(s.b)
}

// space skips JSON whitespace.
func (s *plainScanner) space() {
	for s.pos < len(s.b) {
		switch s.b[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// byte skips whitespace and then c, reporting whether c was there; when
// it was not, nothing past the whitespace is consumed.
func (s *plainScanner) byte(c byte) bool {
	s.space()
	if s.pos < len(s.b) && s.b[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// str scans a string of printable ASCII with no escape into v.
func (s *plainScanner) str(v *string) bool {
	if !s.byte('"') {
		return false
	}
	for start := s.pos; s.pos < len(s.b); s.pos++ {
		switch c := s.b[s.pos]; {
		case c == '"':
			*v = string(s.b[start:s.pos])
			s.pos++
			return true
		case c < 0x20 || c > 0x7e || c == '\\':
			return false
		}
	}
	return false
}

// bool scans true or false into v.
func (s *plainScanner) bool(v *bool) bool {
	s.space()
	for _, lit := range [...]string{"false", "true"} {
		if len(s.b)-s.pos >= len(lit) && string(s.b[s.pos:s.pos+len(lit)]) == lit {
			s.pos += len(lit)
			*v = lit == "true"
			return s.delimited()
		}
	}
	return false
}

// int scans into v an integer in JSON's grammar — an optional minus,
// then 0 or a digit string without a leading zero — with no fraction or
// exponent, whose magnitude is below 10¹⁸.
func (s *plainScanner) int(v *int) bool {
	s.space()
	neg := s.pos < len(s.b) && s.b[s.pos] == '-'
	if neg {
		s.pos++
	}
	start, x := s.pos, 0
	for s.pos < len(s.b) && s.pos-start < 18 && '0' <= s.b[s.pos] && s.b[s.pos] <= '9' {
		x = 10*x + int(s.b[s.pos]-'0')
		s.pos++
	}
	digits := s.pos - start
	if digits == 0 || (digits > 1 && s.b[start] == '0') || !s.delimited() {
		return false
	}
	if neg {
		x = -x
	}
	*v = x
	return true
}

// delimited reports whether the literal just scanned ends where a JSON
// token may: at the end, at whitespace or at a structural byte. A digit
// past the 18th, a '.', an 'e' or a letter glued to "true" does not.
func (s *plainScanner) delimited() bool {
	if s.pos == len(s.b) {
		return true
	}
	switch s.b[s.pos] {
	case ' ', '\t', '\n', '\r', ',', ']', '}':
		return true
	}
	return false
}

// ints scans an array of integers into v.
func (s *plainScanner) ints(v *[]int) bool {
	if !s.byte('[') {
		return false
	}
	out := []int{}
	for first := true; !s.byte(']'); first = false {
		var x int
		if (!first && !s.byte(',')) || !s.int(&x) {
			return false
		}
		out = append(out, x)
	}
	*v = out
	return true
}

// edges scans an array of two-integer arrays into v.
func (s *plainScanner) edges(v *[][2]int) bool {
	if !s.byte('[') {
		return false
	}
	// Every edge opens an array and takes five bytes at least: either
	// bounds the edges left.
	rest := s.b[s.pos:]
	out := make([][2]int, 0, min(bytes.Count(rest, []byte{'['}), len(rest)/5+1))
	for first := true; !s.byte(']'); first = false {
		var e [2]int
		if (!first && !s.byte(',')) || !s.byte('[') || !s.int(&e[0]) || !s.byte(',') || !s.int(&e[1]) || !s.byte(']') {
			return false
		}
		out = append(out, e)
	}
	*v = out
	return true
}
