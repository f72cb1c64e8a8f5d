package serve

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"

	"ned"
	"ned/internal/datasets"
	"ned/internal/graph"
)

// Tenant is one named corpus with the serving metadata the handlers
// need without calling Stats on the hot path. The Corpus itself is
// fully concurrent, so tenants need no lock of their own.
type Tenant struct {
	Name     string
	Corpus   *ned.Corpus
	K        int
	Directed bool
	// HasGraph reports whether the corpus has a backing graph, which
	// gates Insert/UpdateGraph and the coalescer's node->signature
	// resolution.
	HasGraph bool
	// Workers is the corpus's configured worker count — its executor's
	// width; 0 means GOMAXPROCS, as in the engine.
	Workers int

	lane lane // the coalescer's pass slots and queue for this corpus
}

// passSlots is how many KNN passes the coalescer runs side by side on
// this tenant before it starts queuing: the corpus executor's width.
// Past it another concurrent pass only splits the same workers, while a
// batch pass fills the executor once and each of its queries sweeps on
// the worker that took it.
func (t *Tenant) passSlots() int {
	if t.Workers > 0 {
		return t.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Registry is the multi-tenant corpus table: create/load/drop by name,
// lookup on every request. Lookups take the read lock only; a dropped
// tenant's in-flight queries finish safely on the corpus they resolved
// (a Corpus has no close — its epochs are garbage-collected when the
// last reader lets go).
type Registry struct {
	mu      sync.RWMutex
	tenants map[string]*Tenant
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{tenants: make(map[string]*Tenant)}
}

// maxCorpusName bounds tenant names so they stay usable as metric
// labels and path segments.
const maxCorpusName = 128

// validateName rejects names that would not survive a URL path segment
// or a Prometheus label value.
func validateName(name string) error {
	if name == "" || len(name) > maxCorpusName {
		return fmt.Errorf("%w: corpus name must be 1-%d characters", ErrBadRequest, maxCorpusName)
	}
	// Tenant names become durable-directory path segments: "." and ".."
	// would escape or alias the data directory, and any other leading-dot
	// name would hide the tenant's directory from directory scans.
	if name[0] == '.' {
		return fmt.Errorf("%w: corpus name %q may not start with '.'", ErrBadRequest, name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("%w: corpus name %q may only contain [A-Za-z0-9._-]", ErrBadRequest, name)
		}
	}
	return nil
}

// Get resolves a tenant by name.
func (r *Registry) Get(name string) (*Tenant, error) {
	r.mu.RLock()
	t := r.tenants[name]
	r.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("%w: %q", ErrCorpusNotFound, name)
	}
	return t, nil
}

// Put registers a tenant under its name; a name can only be taken once
// (drop it first to replace it).
func (r *Registry) Put(t *Tenant) error {
	if err := validateName(t.Name); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tenants[t.Name]; ok {
		return fmt.Errorf("%w: %q", ErrCorpusExists, t.Name)
	}
	r.tenants[t.Name] = t
	return nil
}

// Drop removes a tenant. Queries already in flight on the corpus
// finish normally; new lookups fail with ErrCorpusNotFound.
func (r *Registry) Drop(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tenants[name]; !ok {
		return fmt.Errorf("%w: %q", ErrCorpusNotFound, name)
	}
	delete(r.tenants, name)
	return nil
}

// All returns the tenants in name order.
func (r *Registry) All() []*Tenant {
	r.mu.RLock()
	out := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len reports the registered tenant count.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tenants)
}

// GraphSpec is an inline graph in a create or updategraph request:
// dense 0-based node IDs and an edge list, matching the engine's
// builder.
type GraphSpec struct {
	Nodes    int      `json:"nodes"`
	Directed bool     `json:"directed,omitempty"`
	Edges    [][2]int `json:"edges"`
}

// Build materializes the spec into an engine graph.
func (gs *GraphSpec) Build() (*ned.Graph, error) {
	if gs.Nodes < 0 {
		return nil, fmt.Errorf("%w: graph.nodes must be >= 0", ErrBadRequest)
	}
	b := ned.NewGraphBuilder(gs.Nodes, gs.Directed)
	for i, e := range gs.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= gs.Nodes || v < 0 || v >= gs.Nodes {
			return nil, fmt.Errorf("%w: graph.edges[%d]=(%d,%d) out of [0,%d)", ErrBadRequest, i, u, v, gs.Nodes)
		}
		b.AddEdge(graph.NodeID(u), graph.NodeID(v))
	}
	return b.Build(), nil
}

// CreateRequest describes a corpus to create or load. Exactly one of
// Graph, SnapshotPath, or Dataset supplies the data; the remaining
// fields tune the engine per tenant.
type CreateRequest struct {
	Name string `json:"name"`
	// K is the neighborhood depth (required with Graph or Dataset;
	// snapshots record their own and ignore it).
	K int `json:"k,omitempty"`
	// Backend is accepted and ignored: "vp", "bk", "linear", "pruned"
	// or empty all mean the cascade scan; any other name is a 400. (A
	// "rebuild_threshold" key from older clients is dropped with every
	// other unknown key.)
	Backend string `json:"backend,omitempty"`
	// Shards and Workers tune the engine; zero values mean the engine
	// defaults.
	Shards  int `json:"shards,omitempty"`
	Workers int `json:"workers,omitempty"`
	// Directed selects the directed NED of Eq. 2 (Graph/Dataset only;
	// a snapshot records its own directedness).
	Directed bool `json:"directed,omitempty"`
	// NodesSubset restricts the indexed node set (Graph/Dataset only).
	NodesSubset []int `json:"nodes_subset,omitempty"`

	// Graph is an inline graph to index.
	Graph *GraphSpec `json:"graph,omitempty"`
	// SnapshotPath is a server-side ned corpus snapshot file to load;
	// pair it with Graph to re-attach a backing graph (WithGraph).
	SnapshotPath string `json:"snapshot_path,omitempty"`
	// Dataset names a built-in synthetic dataset analog (CAR, PAR,
	// AMZN, DBLP, GNU, PGP), scaled and seeded below.
	Dataset string  `json:"dataset,omitempty"`
	Scale   float64 `json:"scale,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
}

// options translates the tuning fields into engine options.
func (cr *CreateRequest) options() ([]ned.CorpusOption, error) {
	var opts []ned.CorpusOption
	if cr.Backend != "" {
		if _, err := ned.ParseBackend(cr.Backend); err != nil {
			return nil, err
		}
	}
	if cr.Shards > 0 {
		opts = append(opts, ned.WithShards(cr.Shards))
	}
	if cr.Workers > 0 {
		opts = append(opts, ned.WithWorkers(cr.Workers))
	}
	if cr.Directed {
		opts = append(opts, ned.WithDirected())
	}
	if cr.NodesSubset != nil {
		nodes := make([]ned.NodeID, len(cr.NodesSubset))
		for i, v := range cr.NodesSubset {
			nodes[i] = ned.NodeID(v)
		}
		opts = append(opts, ned.WithNodes(nodes))
	}
	return opts, nil
}

// CreateTenant builds the tenant a CreateRequest describes: a fresh
// corpus over an inline graph or generated dataset, or a corpus
// restored from a server-side snapshot file (optionally re-attached to
// an inline graph). The tenant is not registered; callers Put it.
func CreateTenant(cr *CreateRequest) (*Tenant, error) {
	if err := validateName(cr.Name); err != nil {
		return nil, err
	}
	sources := 0
	for _, has := range []bool{cr.Graph != nil && cr.SnapshotPath == "", cr.SnapshotPath != "", cr.Dataset != ""} {
		if has {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("%w: provide exactly one of graph, snapshot_path, or dataset", ErrBadRequest)
	}
	opts, err := cr.options()
	if err != nil {
		return nil, err
	}

	if cr.SnapshotPath != "" {
		f, err := os.Open(cr.SnapshotPath)
		if err != nil {
			return nil, fmt.Errorf("%w: opening snapshot: %v", ErrBadRequest, err)
		}
		defer f.Close()
		if cr.Graph != nil {
			g, err := cr.Graph.Build()
			if err != nil {
				return nil, err
			}
			opts = append(opts, ned.WithGraph(g))
		}
		c, err := ned.LoadCorpus(f, opts...)
		if err != nil {
			return nil, err
		}
		// A binary segment embeds its graph, so whether the tenant has one
		// is the corpus's to say, not the request's.
		return tenantOf(cr.Name, c), nil
	}

	var g *ned.Graph
	switch {
	case cr.Graph != nil:
		if g, err = cr.Graph.Build(); err != nil {
			return nil, err
		}
	default:
		g, err = datasets.Generate(datasets.Name(strings.ToUpper(cr.Dataset)), datasets.Options{Scale: cr.Scale, Seed: cr.Seed})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	c, err := ned.NewCorpus(g, cr.K, opts...)
	if err != nil {
		return nil, err
	}
	return &Tenant{Name: cr.Name, Corpus: c, K: cr.K, Directed: cr.Directed, HasGraph: true, Workers: cr.Workers}, nil
}
