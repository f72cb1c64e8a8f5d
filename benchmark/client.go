package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync/atomic"
	"time"

	"ned/internal/serve"
)

// newHTTPClient returns a client holding at most conns keep-alive
// connections to the daemon — the load generator never opens more than
// the host has cores.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// tally counts what the load generator saw. The counters are atomic
// because serve-read and serve-mixed drive two connections.
type tally struct {
	sent, ok, failed, wrong atomic.Int64
	// lost counts acknowledged mutations a restarted daemon did not
	// reflect.
	lost atomic.Int64
	// hit/scored feed the de-anonymisation precision of serve-read.
	hit, scored atomic.Int64
}

type verdict int

const (
	vOK verdict = iota
	vFailed
	vWrong
)

// conn is one closed-loop client: it sends the next request only after
// the previous answer arrived.
type conn struct {
	hc   *http.Client
	base string
	t    *tally
	buf  bytes.Buffer
	// firstErr keeps the first failure's description for the log.
	firstErr error
	// corrupt, test-only, flips the oracle's first expected node so the
	// mismatch path is provably wired to the exit code.
	corrupt bool
	// stable says the corpus under this client's queries never changes
	// (serve-wire, serve-read): every replay of an op must then repeat
	// its first answer exactly.
	stable bool
}

func (c *conn) note(err error) {
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// post sends one request and returns status, body and the latency the
// client observed (request written → whole response read).
func (c *conn) post(path string, body []byte) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), time.Since(t0), err
}

// do runs one op, checks its answer and counts it. strict, evaluated
// once the answer is in, says whether the exhaustive oracle applies;
// nil means always. It is false only while serve-mixed has the corpus
// graph deliberately changed under the reader.
func (c *conn) do(o *op, strict func() bool) (time.Duration, verdict) {
	c.t.sent.Add(1)
	status, body, lat, err := c.post(o.path, o.body)
	v := vOK
	switch {
	case err != nil:
		c.note(fmt.Errorf("%s: %w", o.path, err))
		v = vFailed
	case status/100 != 2:
		c.note(fmt.Errorf("%s: status %d: %s", o.path, status, bytes.TrimSpace(body)))
		v = vFailed
	case o.isQuery():
		if err := c.checkQuery(o, body, strict == nil || strict()); err != nil {
			c.note(fmt.Errorf("%s node %d: %w", o.path, o.node, err))
			v = vWrong
		}
	}
	switch v {
	case vOK:
		c.t.ok.Add(1)
	case vFailed:
		c.t.failed.Add(1)
	case vWrong:
		c.t.wrong.Add(1)
	}
	return lat, v
}

// checkQuery validates a query answer: always its shape (l neighbours
// in canonical order), and against the exhaustive oracle when the op
// carries one.
func (c *conn) checkQuery(o *op, body []byte, strict bool) error {
	var qr serve.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return fmt.Errorf("undecodable answer: %w", err)
	}
	nbs := qr.Neighbors
	if len(nbs) != topL {
		return fmt.Errorf("%d neighbours, want %d", len(nbs), topL)
	}
	for i := 1; i < len(nbs); i++ {
		a, b := nbs[i-1], nbs[i]
		if a.Dist > b.Dist || (a.Dist == b.Dist && a.Node >= b.Node) {
			return fmt.Errorf("answer not in (distance, node) order: %v", nbs)
		}
	}
	if o.kind == opKNNSig {
		c.t.scored.Add(1)
		if slices.ContainsFunc(nbs, func(nb serve.NeighborJSON) bool { return nb.Node == int(o.node) }) {
			c.t.hit.Add(1)
		}
	}
	if c.stable {
		if o.first == nil {
			o.first = nbs
		} else if !slices.Equal(nbs, o.first) {
			return fmt.Errorf("answer %v differs from the first replay's %v", nbs, o.first)
		}
	}
	if o.want == nil || !strict {
		return nil
	}
	want := o.want
	if c.corrupt {
		want = slices.Clone(want)
		want[0].Node++
	}
	if !slices.Equal(nbs, want) {
		return fmt.Errorf("answer %v differs from exhaustive %v", nbs, want)
	}
	return nil
}

// statsNodes reads the tenant's indexed node count from /stats.
func (c *conn) statsNodes() (int, error) {
	resp, err := c.hc.Get(c.base + corpusPath("stats"))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	var doc serve.StatsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return 0, fmt.Errorf("stats: %w", err)
	}
	return doc.Stats.Nodes, nil
}

// indexed asks for every node at distance 0 of v's own signature and
// reports whether v is among them — true exactly when v is indexed.
// (A knn would not do: twins with smaller IDs can fill all l slots.)
func (c *conn) indexed(probe *op) (bool, error) {
	status, body, _, err := c.post(probe.path, probe.body)
	if err != nil {
		return false, err
	}
	if status != http.StatusOK {
		return false, fmt.Errorf("probe range(%d): status %d", probe.node, status)
	}
	var qr serve.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return false, fmt.Errorf("probe range(%d): %w", probe.node, err)
	}
	return slices.ContainsFunc(qr.Neighbors, func(nb serve.NeighborJSON) bool {
		return nb.Node == int(probe.node) && nb.Dist == 0
	}), nil
}
