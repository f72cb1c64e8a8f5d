// Package serve is the network tier over the ned Corpus engine: a
// multi-tenant HTTP/JSON service exposing the full query and mutation
// API over named corpora, with per-request deadlines mapped onto the
// engine's context plumbing, admission control (bounded in-flight
// queries with a fast overload path), and a Prometheus /metrics
// endpoint exporting the engine's cascade and write-contention counters
// next to the server's own request, latency, in-flight, and overload
// counters. Every query runs its own engine call on its handler's
// goroutine.
//
// The engine's epoch-published design is what makes a thin serving
// tier sufficient: reads are lock-free snapshots and writers serialize
// only on the corpus write lock, so the server can fan arbitrary client
// concurrency straight into the Corpus without its own locking — the
// writer/reader split of Helland's "Scalable OLTP in the Cloud".
package serve

import (
	"context"
	"errors"
	"net/http"

	"ned"
)

// Typed errors owned by the serve layer; engine errors (ned.ErrBadK and
// friends) pass through and map to their own codes.
var (
	// ErrCorpusNotFound reports a request naming a corpus the registry
	// does not hold.
	ErrCorpusNotFound = errors.New("serve: corpus not found")
	// ErrCorpusExists reports a create for a name already registered.
	ErrCorpusExists = errors.New("serve: corpus already exists")
	// ErrBadRequest reports a request the server could not decode or
	// validate before reaching the engine.
	ErrBadRequest = errors.New("serve: bad request")
	// ErrOverloaded reports an admission-control rejection: the bounded
	// in-flight query budget was full, so the request was refused
	// immediately rather than queued behind work it would only slow
	// down. Clients should back off and retry.
	ErrOverloaded = errors.New("serve: too many in-flight queries")
	// ErrPanic reports a handler panic caught by the recovery
	// middleware: the connection got a typed 500 instead of a RST, and
	// the daemon kept serving.
	ErrPanic = errors.New("serve: internal panic")
)

// StatusClientClosedRequest is the non-standard status (nginx's 499)
// recorded when a client disconnects mid-query: the handler aborts via
// context cancellation and nobody reads the response, but metrics still
// want the outcome distinguished from real failures.
const StatusClientClosedRequest = 499

// errorCode is one row of the error table: a stable wire code and the
// HTTP status it travels with.
type errorCode struct {
	match  error
	code   string
	status int
}

// errorTable maps every typed error the serve layer can surface to its
// stable JSON code + HTTP status. Order matters only for wrapped chains
// that could match twice (none today); errors.Is handles wrapping.
var errorTable = []errorCode{
	{ErrCorpusNotFound, "corpus_not_found", http.StatusNotFound},
	{ErrCorpusExists, "corpus_exists", http.StatusConflict},
	{ErrOverloaded, "overloaded", http.StatusTooManyRequests},
	{ErrBadRequest, "bad_request", http.StatusBadRequest},
	{context.DeadlineExceeded, "deadline_exceeded", http.StatusGatewayTimeout},
	{context.Canceled, "canceled", StatusClientClosedRequest},
	{ned.ErrBadK, "bad_k", http.StatusBadRequest},
	{ned.ErrBadL, "bad_l", http.StatusBadRequest},
	{ned.ErrBadRadius, "bad_radius", http.StatusBadRequest},
	{ned.ErrNodeOutOfRange, "node_out_of_range", http.StatusBadRequest},
	{ned.ErrBadBackend, "bad_backend", http.StatusBadRequest},
	{ned.ErrKMismatch, "k_mismatch", http.StatusBadRequest},
	{ned.ErrBadSignature, "bad_signature", http.StatusBadRequest},
	{ned.ErrDirectedSignature, "directed_signature", http.StatusBadRequest},
	{ned.ErrNilGraph, "nil_graph", http.StatusBadRequest},
	{ned.ErrBadSnapshot, "bad_snapshot", http.StatusBadRequest},
	// A graph-requiring operation on a corpus loaded without a graph is
	// a conflict with the corpus's state, not a malformed request.
	{ned.ErrNoGraph, "no_graph", http.StatusConflict},
	// A mutation on a degraded corpus is refused until its durable
	// storage recovers; reads keep serving. 503 + Retry-After tells
	// well-behaved clients to back off, not fail over their data.
	{ned.ErrDegraded, "degraded", http.StatusServiceUnavailable},
	{ErrPanic, "panic", http.StatusInternalServerError},
}

// MapError resolves any error the serve layer returns into its HTTP
// status and stable JSON error code. Unknown errors are "internal"/500
// — the catch-all a client should treat as a server bug.
func MapError(err error) (status int, code string) {
	for _, row := range errorTable {
		if errors.Is(err, row.match) {
			return row.status, row.code
		}
	}
	return http.StatusInternalServerError, "internal"
}

// ErrorBody is the JSON error payload: a stable machine-readable code
// plus the human-readable message of the underlying typed error.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse is the envelope every non-2xx JSON response carries.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}
