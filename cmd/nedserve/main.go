// Command nedserve is the network tier over the ned Corpus engine: a
// multi-tenant HTTP/JSON daemon serving KNN / KNNSignature / Range /
// NearestSet / BatchKNN queries and Insert / Remove / UpdateGraph /
// Snapshot mutations over named corpora, with per-request deadlines,
// admission control, Prometheus metrics, and
// graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	nedserve -addr :8080                                   # empty registry; create corpora over the API
//	nedserve -addr :8080 -name demo -dataset PGP -k 3      # boot serving a built-in dataset analog
//	nedserve -addr :8080 -name prod -snapshot c.nedseg     # boot from a NEDSEG03 corpus snapshot (older formats: nedstats -upgrade)
//	nedserve -addr :8080 -data /var/lib/nedserve           # durable tenants: recover on boot, WAL every mutation
//
// Corpora are created and dropped at runtime over the API:
//
//	curl -X POST localhost:8080/v1/corpora -d '{"name":"g1","k":3,"graph":{"nodes":4,"edges":[[0,1],[1,2],[2,3]]}}'
//	curl -X POST localhost:8080/v1/corpora/g1/knn -d '{"node":0,"l":3}'
//	curl 'localhost:8080/v1/corpora/g1/stats'
//	curl 'localhost:8080/metrics'
//
// See the README's "Serving" section for the endpoint catalog, deadline
// and overload semantics, and a complete example session.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ned"
	"ned/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		name     = flag.String("name", "default", "name of the corpus served at boot (with -dataset or -snapshot)")
		dataset  = flag.String("dataset", "", "boot corpus: built-in dataset analog (CAR, PAR, AMZN, DBLP, GNU, PGP)")
		snapshot = flag.String("snapshot", "", "boot corpus: ned corpus snapshot file, a NEDSEG03 segment (convert an older corpus, NEDSEG01, NEDSEG02 or text, with nedstats -upgrade)")
		k        = flag.Int("k", 3, "boot corpus neighborhood depth (dataset only; snapshots record their own)")
		workers  = flag.Int("workers", 0, "boot corpus worker count (0 = GOMAXPROCS)")
		scale    = flag.Float64("scale", 1.0, "boot dataset scale factor")
		seed     = flag.Int64("seed", 42, "boot dataset generator seed")

		maxInflight = flag.Int("max-inflight", 256, "admitted query concurrency; beyond it requests get 429")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown: how long to wait for in-flight queries")

		dataDir   = flag.String("data", "", "durable data directory: tenants persist in per-name subdirectories and recover on boot")
		fsyncMode = flag.String("fsync", "always", "WAL fsync policy for durable tenants (always, none)")
		ckptEvery = flag.Int64("checkpoint-every", 1024, "checkpoint a durable tenant once its mutation log holds this many records")
	)
	flag.Parse()

	fsync, err := ned.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		fatal(err)
	}
	srv := serve.New(serve.Options{
		MaxInflight:     *maxInflight,
		DataDir:         *dataDir,
		Fsync:           fsync,
		CheckpointEvery: *ckptEvery,
	})

	if *dataDir != "" {
		start := time.Now()
		recovered, err := srv.BootDurable()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("nedserve: recovered %d durable corpora from %s in %s %v\n",
			len(recovered), *dataDir, time.Since(start).Round(time.Millisecond), recovered)
	}

	if (*dataset != "" || *snapshot != "") && bootRecovered(srv, *name) {
		// The boot tenant already lives in the data directory; the
		// recovered state (mutations included) wins over regenerating it.
		fmt.Printf("nedserve: corpus %q recovered from %s; skipping boot creation\n", *name, *dataDir)
	} else if *dataset != "" || *snapshot != "" {
		if *dataset != "" && *snapshot != "" {
			fatal(errors.New("provide -dataset or -snapshot, not both"))
		}
		cr := &serve.CreateRequest{
			Name:    *name,
			K:       *k,
			Workers: *workers,
		}
		if *dataset != "" {
			cr.Dataset = *dataset
			cr.Scale = *scale
			cr.Seed = *seed
		} else {
			cr.SnapshotPath = *snapshot
		}
		start := time.Now()
		t, err := serve.CreateTenant(cr)
		if err != nil {
			fatal(err)
		}
		if err := srv.AddTenant(t); err != nil {
			fatal(err)
		}
		cs := t.Corpus.Stats()
		fmt.Printf("nedserve: corpus %q ready: %d nodes, k=%d (built in %s)\n",
			t.Name, cs.Nodes, cs.K, time.Since(start).Round(time.Millisecond))
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Serve until SIGINT/SIGTERM, then drain: Shutdown stops the
	// listener and waits for every in-flight request — admitted queries
	// included — before returning.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *dataDir != "" {
		// Background recovery for degraded tenants: retries the
		// verified checkpoint rewrite with bounded backoff until the
		// disk heals. /readyz reports not-ready while any tenant is
		// degraded; mutations on it 503 with Retry-After.
		srv.StartDegradedRecovery(ctx, time.Second)
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("nedserve: listening on %s\n", *addr)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Println("nedserve: draining in-flight queries")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "nedserve: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	// Checkpoint and close every durable tenant so the next boot loads
	// a fresh segment instead of replaying a long mutation log.
	if err := srv.CloseTenants(); err != nil {
		fmt.Fprintf(os.Stderr, "nedserve: closing durable corpora: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("nedserve: bye")
}

// bootRecovered reports whether BootDurable already registered name.
func bootRecovered(srv *serve.Server, name string) bool {
	_, err := srv.Registry().Get(name)
	return err == nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "nedserve: %v\n", err)
	os.Exit(1)
}
