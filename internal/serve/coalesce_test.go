package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// heldServer builds a coalescing server whose direct passes park in the
// onPass seam until the returned release is called, holding their slots
// so that later requests queue; entered receives one value per parked
// pass. Batch passes run freely.
func heldServer(t *testing.T, opts Options) (s *Server, url string, entered chan struct{}, release func()) {
	t.Helper()
	s = New(opts)
	entered = make(chan struct{}, 64) // sized past any test's direct passes: the seam must not block on it
	gate := make(chan struct{})
	s.coal.onPass = func(_ context.Context, members int) {
		if members == 0 {
			entered <- struct{}{}
			<-gate
		}
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return s, newUnstartedServer(t, s), entered, release
}

// awaitQueued blocks until the tenant's coalescer queue holds want
// requests.
func awaitQueued(t *testing.T, s *Server, name string, want int) {
	t.Helper()
	tn, err := s.reg.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		tn.lane.mu.Lock()
		n := len(tn.lane.queue)
		tn.lane.mu.Unlock()
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("coalescer queue holds %d requests, want %d", n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// await receives from c or fails the test after a generous timeout.
func await[T any](t *testing.T, c <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-c:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// TestCoalescedKNNNodeIdentical is the coalescing equivalence suite: for
// every backend, a burst of single-node KNN requests that arrives while
// every pass slot is busy — which the server folds into a shared BatchKNN
// pass — must return answers node-identical to the same queries served
// one at a time with coalescing disabled. The burst is forced through
// the seam, not timed: both slots are held, the burst queues, the slots
// are released.
func TestCoalescedKNNNodeIdentical(t *testing.T) {
	const (
		nodes   = 80
		l       = 4
		slots   = 2
		queries = 32
	)
	gs := ringSpec(nodes)

	for _, backend := range []string{"vp", "bk", "linear", "pruned"} {
		t.Run(backend, func(t *testing.T) {
			cr := CreateRequest{Name: "c", K: 3, Backend: backend, Shards: 3, Workers: slots, Graph: gs}

			// Reference answers: coalescing disabled, sequential queries.
			_, direct := newTestServer(t, Options{CoalesceWindow: -1})
			mustCreate(t, direct.URL, cr)
			want := make([][]NeighborJSON, queries)
			for i := range want {
				var qr QueryResponse
				status, raw := postJSON(t, direct.URL+"/v1/corpora/c/knn", KNNRequest{Node: i % nodes, L: l}, &qr)
				if status != 200 {
					t.Fatalf("direct knn(%d): %d %s", i, status, raw)
				}
				want[i] = qr.Neighbors
			}

			coalServer, url, entered, release := heldServer(t, Options{CoalesceMaxBatch: queries})
			mustCreate(t, url, cr)
			got := make([][]NeighborJSON, queries)
			var wg sync.WaitGroup
			query := func(i int) {
				defer wg.Done()
				var qr QueryResponse
				status, raw := postJSON(t, url+"/v1/corpora/c/knn", KNNRequest{Node: i % nodes, L: l}, &qr)
				if status != 200 {
					t.Errorf("coalesced knn(%d): %d %s", i, status, raw)
					return
				}
				got[i] = qr.Neighbors
			}
			// The first queries take the slots as direct passes and park;
			// the rest of the burst finds every slot busy and queues.
			wg.Add(queries)
			for i := 0; i < slots; i++ {
				go query(i)
			}
			for i := 0; i < slots; i++ {
				await(t, entered, "a direct pass to take its slot")
			}
			for i := slots; i < queries; i++ {
				go query(i)
			}
			awaitQueued(t, coalServer, "c", queries-slots)
			release()
			wg.Wait()

			for i := range want {
				if !reflect.DeepEqual(want[i], got[i]) {
					t.Fatalf("query %d (node %d): coalesced answer diverges\n direct:    %+v\n coalesced: %+v",
						i, i%nodes, want[i], got[i])
				}
			}
			ss := coalServer.Stats()
			if ss.CoalesceBatches < 1 || ss.CoalescedRequests != queries-slots || ss.CoalesceQueueWaits != queries-slots {
				t.Fatalf("queued burst of %d was not served by counted batches: %+v", queries-slots, ss)
			}
			t.Logf("coalesced %d/%d requests into %d batches", ss.CoalescedRequests, queries, ss.CoalesceBatches)
		})
	}
}

// TestCoalescerLoneRequestDirect checks a request with no companions
// runs as a direct engine call and is not counted as coalesced.
func TestCoalescerLoneRequestDirect(t *testing.T) {
	s, ts := newTestServer(t, Options{CoalesceWindow: time.Millisecond})
	mustCreate(t, ts.URL, CreateRequest{Name: "c", K: 2, Graph: ringSpec(30)})
	var qr QueryResponse
	if status, raw := postJSON(t, ts.URL+"/v1/corpora/c/knn", KNNRequest{Node: 3, L: 2}, &qr); status != 200 {
		t.Fatalf("knn: %d %s", status, raw)
	}
	if len(qr.Neighbors) != 2 {
		t.Fatalf("knn answer: %+v", qr)
	}
	if ss := s.Stats(); ss.CoalescedRequests != 0 || ss.CoalesceBatches != 0 {
		t.Fatalf("lone request was counted as coalesced: %+v", ss)
	}
}

// TestCoalescerIdleRunsImmediately pins work conservation: while a slot
// is free a request runs at once — it completes beside a pass that is
// still parked on the other slot, and nothing ever queues.
func TestCoalescerIdleRunsImmediately(t *testing.T) {
	s := New(Options{})
	parked, gate := make(chan struct{}), make(chan struct{})
	var taken atomic.Bool
	s.coal.onPass = func(context.Context, int) {
		if taken.CompareAndSwap(false, true) { // only the first pass parks
			close(parked)
			<-gate
		}
	}
	url := newUnstartedServer(t, s)
	mustCreate(t, url, CreateRequest{Name: "c", K: 2, Workers: 2, Graph: ringSpec(30)})

	done := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, url+"/v1/corpora/c/knn", KNNRequest{Node: 0, L: 2}, nil)
		done <- status
	}()
	await(t, parked, "the first pass to park on its slot")

	var qr QueryResponse
	if status, raw := postJSON(t, url+"/v1/corpora/c/knn", KNNRequest{Node: 3, L: 2}, &qr); status != 200 || len(qr.Neighbors) != 2 {
		t.Fatalf("knn beside a parked pass: %d %s", status, raw)
	}
	if ss := s.Stats(); ss.CoalesceQueueWaits != 0 || ss.CoalescedRequests != 0 {
		t.Fatalf("a request queued although a slot was free: %+v", ss)
	}
	close(gate)
	if status := await(t, done, "the parked request to finish"); status != 200 {
		t.Fatalf("parked request finished with %d", status)
	}
}

// TestCoalescerSlotReleasedOnPanicAndCancel pins the slot accounting: a
// direct pass that panics, a batch pass whose only member walks away, and
// a batch pass that panics must each give their slot on, so every queued
// follower gets an answer or a typed error and nothing stays in flight.
func TestCoalescerSlotReleasedOnPanicAndCancel(t *testing.T) {
	s := New(Options{})
	type pass struct {
		ctx     context.Context
		members int
		resume  chan bool // true: panic inside the pass
	}
	passes := make(chan pass, 16) // sized past the 5 passes below: the seam must not block on it
	s.coal.onPass = func(ctx context.Context, members int) {
		p := pass{ctx, members, make(chan bool)}
		passes <- p
		if <-p.resume {
			panic("injected pass failure")
		}
	}
	url := newUnstartedServer(t, s)
	mustCreate(t, url, CreateRequest{Name: "c", K: 2, Workers: 2, Graph: ringSpec(40)})
	baseline := settledGoroutines()

	type result struct {
		status int
		code   string
		nbs    int
		err    error
	}
	knn := func(ctx context.Context, node, l int) <-chan result {
		out := make(chan result, 1)
		go func() {
			body, _ := json.Marshal(KNNRequest{Node: node, L: l})
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/corpora/c/knn", bytes.NewReader(body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				out <- result{err: err}
				return
			}
			defer resp.Body.Close()
			var doc struct {
				Neighbors []NeighborJSON `json:"neighbors"`
				Error     ErrorBody      `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&doc)
			out <- result{resp.StatusCode, doc.Error.Code, len(doc.Neighbors), err}
		}()
		return out
	}
	bg := context.Background()

	// Two direct passes hold both slots.
	holderA, holderB := knn(bg, 0, 2), knn(bg, 1, 2)
	passA := await(t, passes, "the first direct pass")
	passB := await(t, passes, "the second direct pass")

	// Followers queue in a known order: a lone l=3 request whose client
	// will walk away, then two l=4 and two l=5 requests.
	leaveCtx, leave := context.WithCancel(bg)
	defer leave()
	leaver := knn(leaveCtx, 2, 3)
	awaitQueued(t, s, "c", 1)
	doomed := []<-chan result{knn(bg, 3, 4), knn(bg, 4, 4)}
	awaitQueued(t, s, "c", 3)
	served := []<-chan result{knn(bg, 5, 5), knn(bg, 6, 5)}
	awaitQueued(t, s, "c", 5)

	// A direct pass panics: its handler answers 500 and its slot goes to
	// the head of the queue — the l=3 request, alone.
	passA.resume <- true
	lone := await(t, passes, "the batch pass behind the panicked one")
	if lone.members != 1 {
		t.Fatalf("pass after the panic has %d members, want the lone l=3 request", lone.members)
	}
	// Its only member leaves: the pass context must cancel, and the
	// abandoned pass must still hand the slot on.
	leave()
	await(t, lone.ctx.Done(), "the abandoned pass's context to cancel")
	lone.resume <- false
	if r := await(t, leaver, "the leaver's client"); r.err == nil {
		t.Fatalf("canceled client got an answer: %+v", r)
	}
	// The l=4 pair shares a batch pass that panics.
	pair := await(t, passes, "the batch pass behind the abandoned one")
	if pair.members != 2 {
		t.Fatalf("pass after the abandoned one has %d members, want the l=4 pair", pair.members)
	}
	pair.resume <- true
	// The l=5 pair is served by the pass behind that, normally.
	last := await(t, passes, "the batch pass behind the panicked batch")
	last.resume <- false
	passB.resume <- false

	first, second := await(t, holderA, "holder"), await(t, holderB, "holder")
	if first.status > second.status {
		first, second = second, first // whichever holder entered the seam first panicked
	}
	if first.err != nil || first.status != 200 || second.err != nil || second.status != 500 || second.code != "panic" {
		t.Fatalf("holders finished %+v and %+v, want one 200 and one typed panic", first, second)
	}
	for _, c := range doomed {
		if r := await(t, c, "a member of the panicked batch"); r.err != nil || r.status != 500 || r.code != "panic" {
			t.Fatalf("member of the panicked batch got %+v, want the typed panic error", r)
		}
	}
	for _, c := range served {
		if r := await(t, c, "a member of the last batch"); r.err != nil || r.status != 200 || r.nbs != 5 {
			t.Fatalf("member of the last batch got %+v, want 200 with 5 neighbors", r)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		tn, _ := s.reg.Get("c")
		tn.lane.mu.Lock()
		busy, queued := tn.lane.busy, len(tn.lane.queue)
		tn.lane.mu.Unlock()
		ss := s.Stats()
		if busy == 0 && queued == 0 && ss.Inflight == 0 {
			if ss.Panics != 2 || ss.CoalesceBatches != 2 || ss.CoalescedRequests != 4 || ss.CoalesceQueueWaits != 5 {
				t.Fatalf("counters after the drain: %+v", ss)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slots stranded: busy=%d queued=%d stats=%+v", busy, queued, ss)
		}
		time.Sleep(time.Millisecond)
	}
	http.DefaultClient.CloseIdleConnections() // the clients' kept-alive connections are not leaks
	requireNoLeakedGoroutines(t, baseline)
}

// TestAdmissionControl pins overload semantics: with the in-flight
// budget full, the next query is refused immediately with the 429
// overloaded code — without disturbing the admitted queries, which
// complete normally once unblocked.
func TestAdmissionControl(t *testing.T) {
	const limit = 2
	s := New(Options{MaxInflight: limit, CoalesceWindow: -1})
	admitted := make(chan struct{}, limit)
	release := make(chan struct{})
	s.afterAdmit = func(*http.Request) {
		admitted <- struct{}{}
		<-release
	}
	url := newUnstartedServer(t, s)
	mustCreate(t, url, CreateRequest{Name: "a", K: 2, Graph: ringSpec(40)})

	// Fill the budget with queries parked inside the admission window.
	type result struct {
		status int
		raw    []byte
	}
	results := make(chan result, limit)
	for i := 0; i < limit; i++ {
		go func(i int) {
			status, raw := postJSON(t, url+"/v1/corpora/a/knn", KNNRequest{Node: i, L: 2}, nil)
			results <- result{status, raw}
		}(i)
	}
	for i := 0; i < limit; i++ {
		select {
		case <-admitted:
		case <-time.After(5 * time.Second):
			t.Fatal("queries never reached the admission seam")
		}
	}

	// The budget is full: the next query must be refused fast.
	start := time.Now()
	status, raw := postJSON(t, url+"/v1/corpora/a/knn?timeout_ms=30000", KNNRequest{Node: 9, L: 2}, nil)
	fastFail := time.Since(start)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-budget query: status %d (body %s), want 429", status, raw)
	}
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.Error.Code != "overloaded" {
		t.Fatalf("over-budget body %s, want code overloaded", raw)
	}
	if fastFail > time.Second {
		t.Fatalf("429 took %v; overload refusal must not queue", fastFail)
	}
	if ss := s.Stats(); ss.Inflight != limit || ss.Overloads != 1 {
		t.Fatalf("stats during overload: %+v", ss)
	}

	// Control-plane calls stay responsive while queries are saturated.
	if st, _ := getJSON(t, url+"/healthz", nil); st != 200 {
		t.Fatalf("healthz during overload: %d", st)
	}
	if st, _ := getJSON(t, url+"/v1/corpora/a/stats", nil); st != 200 {
		t.Fatalf("stats endpoint during overload: %d", st)
	}

	// Releasing the seam lets the admitted queries finish untouched.
	close(release)
	for i := 0; i < limit; i++ {
		r := <-results
		if r.status != 200 {
			t.Fatalf("admitted query finished with %d (body %s), want 200", r.status, r.raw)
		}
	}
	if ss := s.Stats(); ss.Inflight != 0 {
		t.Fatalf("inflight after drain: %+v", ss)
	}
}
