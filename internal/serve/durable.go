package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"ned"
)

// Server-side durability: when Options.DataDir is set, every tenant
// owns a directory DataDir/<name> holding its checkpoint segments and
// mutation log (see the ned package's MakeDurable/OpenDurable). Create
// attaches it, BootDurable recovers every tenant found on disk at
// startup, mutations auto-checkpoint once the log grows past
// CheckpointEvery records, and Drop deletes the directory. Tenant
// names are validated to be safe path segments (no separators, no
// leading dot), so a name can never escape or alias DataDir.
//
// Attach/detach is serialized by a control-plane mutex: the data path
// (queries, mutations on registered tenants) never takes it.

// durable reports whether this server persists tenants.
func (s *Server) durable() bool { return s.opts.DataDir != "" }

// tenantDir is the durable directory of a (validated) tenant name.
func (s *Server) tenantDir(name string) string {
	return filepath.Join(s.opts.DataDir, name)
}

// tenantOf wraps a recovered corpus in its serving metadata.
func tenantOf(name string, c *ned.Corpus) *Tenant {
	cs := c.Stats()
	return &Tenant{Name: name, Corpus: c, K: cs.K, Directed: cs.Directed, HasGraph: c.HasGraph()}
}

// AddTenant registers a tenant, attaching a durable directory first
// when the server persists tenants. The attach happens before the
// tenant is visible in the registry, so no mutation can race it; if
// registration then fails (name taken), the directory is removed
// again.
func (s *Server) AddTenant(t *Tenant) error {
	if err := validateName(t.Name); err != nil {
		return err
	}
	if !s.durable() {
		return s.reg.Put(t)
	}
	s.durMu.Lock()
	defer s.durMu.Unlock()
	dir := s.tenantDir(t.Name)
	if ned.HasDurableState(dir) {
		return fmt.Errorf("%w: %q has durable state on disk (it is recovered at boot; drop it to replace it)", ErrCorpusExists, t.Name)
	}
	if err := t.Corpus.MakeDurable(dir, s.opts.Fsync); err != nil {
		return err
	}
	if err := s.reg.Put(t); err != nil {
		_ = t.Corpus.CloseDurable()
		_ = os.RemoveAll(dir)
		return err
	}
	return nil
}

// DropTenant removes a tenant from the registry and, on a durable
// server, closes its mutation log and deletes its directory. Queries
// already in flight finish on the corpus they resolved; a mutation
// racing the drop fails cleanly on the closed log without publishing.
func (s *Server) DropTenant(name string) error {
	if !s.durable() {
		return s.reg.Drop(name)
	}
	s.durMu.Lock()
	defer s.durMu.Unlock()
	t, err := s.reg.Get(name)
	if err != nil {
		return err
	}
	if err := s.reg.Drop(name); err != nil {
		return err
	}
	err = t.Corpus.CloseDurable()
	if rmErr := os.RemoveAll(s.tenantDir(name)); err == nil {
		err = rmErr
	}
	return err
}

// BootDurable recovers every tenant directory under DataDir —
// checkpoint plus mutation-log tail, exactly as OpenDurable defines it
// — and registers the results, returning the recovered names in scan
// order. Call it once at boot, before the listener opens. A missing
// DataDir is created empty; a subdirectory without durable state (or
// with an invalid tenant name) is skipped, never deleted.
func (s *Server) BootDurable() ([]string, error) {
	if !s.durable() {
		return nil, nil
	}
	s.durMu.Lock()
	defer s.durMu.Unlock()
	if err := os.MkdirAll(s.opts.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating data directory: %w", err)
	}
	entries, err := os.ReadDir(s.opts.DataDir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() || validateName(e.Name()) != nil {
			continue
		}
		dir := s.tenantDir(e.Name())
		if !ned.HasDurableState(dir) {
			continue
		}
		c, err := ned.OpenDurable(dir, s.opts.Fsync)
		if err != nil {
			return names, fmt.Errorf("recovering tenant %q: %w", e.Name(), err)
		}
		if err := s.reg.Put(tenantOf(e.Name(), c)); err != nil {
			_ = c.CloseDurable()
			return names, err
		}
		names = append(names, e.Name())
	}
	return names, nil
}

// maybeCheckpoint cuts a checkpoint once the tenant's active log holds
// CheckpointEvery records, bounding replay at the next recovery. The
// engine serializes concurrent checkpoints. The triggering mutation is
// already committed when this runs, so a failure here must NOT fail
// the client's request — the write is durable; what broke is
// maintenance. The corpus degrades itself on checkpoint failure, the
// degraded gauge and /readyz surface it, and the recovery loop owns
// the retries.
func (s *Server) maybeCheckpoint(t *Tenant) {
	recs, _, durable := t.Corpus.DurableStats()
	if !durable || recs < s.opts.CheckpointEvery {
		return
	}
	if err := t.Corpus.Checkpoint(); err != nil {
		log.Printf("serve: checkpointing %q after mutation: %v", t.Name, err)
	}
}

// recoverState is the per-tenant backoff bookkeeping of the degraded
// recovery loop.
type recoverState struct {
	attempts int
	next     time.Time
}

// Recovery backoff bounds: first retry after recoverBase, doubling to
// at most recoverMax between attempts. Bounded, not unbounded — a
// disk that comes back (space freed, mount healed) should be noticed
// within seconds, but a dead disk must not be hammered.
const (
	recoverBase = 500 * time.Millisecond
	recoverMax  = 30 * time.Second
)

// RecoverDegraded makes one pass over the degraded tenants, attempting
// the verified-rewrite Checkpoint for each whose backoff window has
// elapsed, and returns how many cleared. Safe to call concurrently
// with all traffic; the engine serializes the actual rewrites.
func (s *Server) RecoverDegraded(now time.Time) int {
	recovered := 0
	for _, t := range s.degradedTenants() {
		s.recMu.Lock()
		st := s.recovering[t.Name]
		if st == nil {
			st = &recoverState{}
			s.recovering[t.Name] = st
		}
		due := !now.Before(st.next)
		attempt := st.attempts + 1
		if due {
			// Claim the slot before releasing the lock so concurrent
			// passes do not double-attempt one tenant.
			backoff := recoverBase << st.attempts
			if backoff > recoverMax || backoff <= 0 {
				backoff = recoverMax
			}
			st.attempts++
			st.next = now.Add(backoff)
		}
		s.recMu.Unlock()
		if !due {
			continue
		}
		if err := t.Corpus.Checkpoint(); err != nil {
			log.Printf("serve: degraded recovery of %q failed (attempt %d): %v", t.Name, attempt, err)
			continue
		}
		log.Printf("serve: tenant %q recovered from degraded mode after %d attempt(s)", t.Name, attempt)
		s.recMu.Lock()
		delete(s.recovering, t.Name)
		s.recMu.Unlock()
		recovered++
	}
	return recovered
}

// StartDegradedRecovery runs RecoverDegraded on a ticker until ctx
// ends. interval is the poll cadence (how quickly a fresh degradation
// is noticed — per-tenant retry spacing is the backoff's job); <= 0
// means one second.
func (s *Server) StartDegradedRecovery(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-tick.C:
				s.RecoverDegraded(now)
			}
		}
	}()
}

// CloseTenants checkpoints and closes every durable tenant — the drain
// hook: the next boot recovers from fresh segments with empty logs. On
// a non-durable server it is a no-op.
func (s *Server) CloseTenants() error {
	if !s.durable() {
		return nil
	}
	s.durMu.Lock()
	defer s.durMu.Unlock()
	var errs []error
	for _, t := range s.reg.All() {
		if _, _, durable := t.Corpus.DurableStats(); !durable {
			continue
		}
		if err := t.Corpus.Checkpoint(); err != nil {
			errs = append(errs, fmt.Errorf("checkpointing %q: %w", t.Name, err))
		}
		if err := t.Corpus.CloseDurable(); err != nil {
			errs = append(errs, fmt.Errorf("closing %q: %w", t.Name, err))
		}
	}
	return errors.Join(errs...)
}
