package ned

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"time"

	"ned/internal/faultfs"
	"ned/internal/fsx"
	"ned/internal/graph"
	"ned/internal/ned"
	"ned/internal/segment"
)

// Durable corpora. A durable directory holds numbered generations of
// two files: a binary segment checkpoint (the full corpus as NEDSEG04:
// the shape dictionary, the backing graph, and each signature tree as
// the interned labels of its levels above the deepest, from which a
// load derives every tree and compiled profile column without
// re-extracting or re-interning anything) and a mutation write-ahead
// log. Every Insert, Remove, and UpdateGraph call appends one
// checksummed record to the active log
// BEFORE its view publishes, so an acknowledged mutation survives a
// crash (under FsyncAlways) and an unacknowledged one never
// half-applies: recovery loads the latest checkpoint and replays the
// log tail, dropping only a torn final frame. Checkpoint rotates the
// log and supersedes it with a fresh segment, truncating recovery time
// and reclaiming the old generations.
//
// Failure model. Storage failure is a state, not a surprise: when a
// WAL commit or a checkpoint write fails (EIO, ENOSPC, a failed
// fsync), the corpus enters a sticky degraded mode — the post-failure
// world is unknowable (the kernel may have dropped the dirty pages;
// the fsync-and-retry lie is exactly the Postgres fsync-gate bug), so
// the engine refuses to pretend. While degraded: mutations fail fast
// with ErrDegraded and are never acknowledged; lock-free reads keep
// serving the last published epoch untouched; Checkpoint is the one
// road back, clearing the state only after a verified full-segment
// rewrite lands a provably-whole checkpoint on disk and a fresh WAL
// starts beside it. Recovery (OpenDurable) treats an unreadable
// checkpoint the same way: quarantine it aside, fall back to the
// previous generation plus the surviving WAL tail — never guess.
//
// Attach durability with MakeDurable before the corpus is shared (the
// attach itself is not atomic with respect to concurrent mutations);
// afterwards mutations, queries, and checkpoints are safe
// concurrently. Reopen with OpenDurable.

// ErrNotDurable reports a durability operation on a corpus that has no
// durable directory attached.
var ErrNotDurable = errors.New("ned: corpus is not durable (attach with MakeDurable or load with OpenDurable)")

// ErrDegraded reports a mutation refused because the corpus's durable
// storage failed and the engine can no longer promise the mutation
// would survive. Reads are unaffected. A successful Checkpoint — a
// verified full-segment rewrite — clears the state.
var ErrDegraded = errors.New("ned: corpus degraded: durable storage failed; mutations refused until a verified checkpoint succeeds")

// DegradedInfo describes why a corpus is degraded. It is immutable
// once published.
type DegradedInfo struct {
	Reason string    // which operation failed ("wal commit", "checkpoint write", ...)
	Cause  error     // the underlying I/O error
	Since  time.Time // when the failure was observed
}

// FsyncPolicy re-exports the WAL fsync policy: FsyncAlways fsyncs
// every committed mutation batch, FsyncNone leaves flushing to the OS
// (a crash may lose the latest acknowledged batches, never corrupt
// earlier ones).
type FsyncPolicy = segment.FsyncPolicy

const (
	FsyncAlways = segment.FsyncAlways
	FsyncNone   = segment.FsyncNone
)

// ParseFsyncPolicy parses the flag spellings "always" and "none".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return segment.ParseFsyncPolicy(s) }

// HasDurableState reports whether dir holds an initialized durable
// corpus (at least one checkpoint).
func HasDurableState(dir string) bool { return segment.HasState(dir) }

// degrade records the first durable-storage failure. The state is
// sticky: later failures while already degraded keep the original
// cause (first fault wins — it is the one that explains the rest).
func (c *Corpus) degrade(reason string, cause error) {
	info := &DegradedInfo{Reason: reason, Cause: cause, Since: time.Now()}
	c.degraded.CompareAndSwap(nil, info)
}

// degradedErr returns the typed refusal for a degraded corpus, nil
// while healthy. Mutation paths call it at entry for a fast fail;
// commit still catches the race where degradation lands after the
// check.
func (c *Corpus) degradedErr() error {
	info := c.degraded.Load()
	if info == nil {
		return nil
	}
	return fmt.Errorf("%w (%s: %v)", ErrDegraded, info.Reason, info.Cause)
}

// Degraded returns the degraded-mode state, nil while healthy.
func (c *Corpus) Degraded() *DegradedInfo { return c.degraded.Load() }

// MakeDurable attaches a durable directory to the corpus: it writes the
// generation-0 checkpoint segment and opens the generation-0 mutation
// log that every subsequent mutation commits through. The directory is
// created if missing and must not already hold durable state (that is
// OpenDurable's job). Call it before the corpus is shared with
// concurrent mutators; mutations racing the attach itself may escape
// the log.
func (c *Corpus) MakeDurable(dir string, policy FsyncPolicy) error {
	c.durMu.Lock()
	defer c.durMu.Unlock()
	if c.wal.Load() != nil {
		return fmt.Errorf("ned: corpus is already durable in %s", c.durableDir)
	}
	if err := faultfs.Default().MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ned: creating durable directory: %w", err)
	}
	if segment.HasState(dir) {
		return fmt.Errorf("ned: %s already holds durable corpus state (open it with OpenDurable)", dir)
	}
	// A prior process may have died between creating an atomic-write
	// temporary and renaming it; orphans are garbage, not state.
	fsx.SweepTemps(dir)
	c.durableDir = dir
	if err := c.writeCheckpointFile(0, c.view.Load()); err != nil {
		// The atomic write may have renamed the segment into place
		// before a later step (directory sync, verify readback) failed.
		// A failed attach made no durable promise, so it must not leave
		// a loadable one behind.
		faultfs.Default().Remove(segment.CheckpointPath(dir, 0))
		c.durableDir = ""
		return err
	}
	w, err := segment.CreateWAL(segment.WALPath(dir, 0), policy)
	if err != nil {
		faultfs.Default().Remove(segment.CheckpointPath(dir, 0))
		c.durableDir = ""
		return err
	}
	c.walSeq = 0
	c.wal.Store(w)
	return nil
}

// OpenDurable recovers a corpus from a durable directory: it loads the
// newest loadable checkpoint segment, replays every log generation at
// or above it in order (a torn final frame — the residue of a crash
// mid-append — is dropped; corruption anywhere else fails loudly), and
// resumes appending to the newest log at its validated prefix. Replay
// runs against the log's own graph — the checkpoint's embedded graph
// moved through every logged graph edit — and re-extracts the
// signatures of the nodes the log names from the graph it ends on. The
// result answers every query exactly as the original did after its
// last committed mutation.
//
// A checkpoint that fails to open or decode is quarantined — renamed
// to <name>.quarantined so it stops shadowing older generations — and
// recovery falls back to the next-lower checkpoint. A checkpoint in a
// format an earlier build wrote is not: OpenDurable fails with
// ErrLegacyFormat before renaming anything, and `nedstats -upgrade DIR`
// converts the directory's checkpoints. The WAL
// generations between the fallback checkpoint and the head still
// replay, so no committed mutation is lost as long as one good
// checkpoint survives (checkpoint cleanup only runs after the
// replacing generation verifies, so one always should).
//
// Options apply as in LoadCorpus, except that a WithGraph graph is
// attached after replay and never used for it. A WithGraph graph that
// differs from the one replay ended on becomes the log's graph through
// a checkpoint written before OpenDurable returns, so later records
// replay against it.
func OpenDurable(dir string, policy FsyncPolicy, opts ...CorpusOption) (*Corpus, error) {
	// Sweep atomic-write temporaries a dead process left behind before
	// looking at anything else; they are never state.
	fsx.SweepTemps(dir)
	ckpts, err := segment.Checkpoints(dir)
	if err != nil {
		return nil, err
	}
	if len(ckpts) == 0 {
		return nil, fmt.Errorf("ned: %s holds no durable corpus state", dir)
	}
	var user corpusConfig
	for _, opt := range opts {
		opt(&user)
	}
	// Load and replay on the checkpoint's own graph: WithGraph(nil) last
	// cancels any override.
	loadOpts := append(slices.Clip(opts), WithGraph(nil))

	var (
		c           *Corpus
		seq         int64
		quarantined int64
		firstErr    error
	)
	for _, s := range ckpts {
		path := segment.CheckpointPath(dir, s)
		loaded, lerr := loadCheckpoint(path, loadOpts...)
		if lerr == nil {
			c, seq = loaded, s
			break
		}
		if os.IsNotExist(lerr) {
			continue
		}
		// A checkpoint an earlier build wrote is not damage: renaming it
		// aside would hide it from nedstats -upgrade, the one way back.
		if errors.Is(lerr, ErrLegacyFormat) {
			return nil, fmt.Errorf("ned: checkpoint %s: %w", path, lerr)
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("ned: checkpoint %s: %w", path, lerr)
		}
		// Unreadable: rename it aside so it stops shadowing older
		// generations, and fall back. The bytes are kept for inspection.
		if qerr := segment.Quarantine(path); qerr != nil {
			return nil, fmt.Errorf("ned: checkpoint %s unreadable (%v) and quarantine failed: %w", path, lerr, qerr)
		}
		quarantined++
	}
	if c == nil {
		return nil, fmt.Errorf("ned: no loadable checkpoint in %s (%d quarantined): %w", dir, quarantined, firstErr)
	}
	c.quarantined.Store(quarantined)

	// Replay the log generations the checkpoint does not cover. A
	// rotation advances the active generation even when the checkpoint
	// that prompted it failed to write, so several trailing generations
	// may hold committed mutations; they replay in order.
	seqs, err := segment.WALSeqs(dir)
	if err != nil {
		return nil, err
	}
	activeSeq, activeValid, activeRecs := seq, int64(0), int64(0)
	haveActive := false
	rp := newReplay()
	for _, s := range seqs {
		if s < seq {
			continue
		}
		recs, valid, err := segment.ReplayWAL(segment.WALPath(dir, s))
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			if err := c.applyRecovered(rec, rp); err != nil {
				return nil, fmt.Errorf("ned: replaying %s: %w", segment.WALPath(dir, s), err)
			}
		}
		activeSeq, activeValid, activeRecs = s, valid, int64(len(recs))
		haveActive = true
	}
	c.finishReplay(rp)
	logGraph := c.view.Load().g
	if user.graph != nil {
		view := c.view.Load()
		if err := validateLoadedGraph(c.cfg, user.graph, nodesOf(view.scan)); err != nil {
			return nil, err
		}
		c.view.Store(&corpusView{g: user.graph, scan: view.scan})
	}

	var w *segment.WAL
	if haveActive {
		w, err = segment.OpenWALAt(segment.WALPath(dir, activeSeq), activeValid, activeRecs, policy)
	} else {
		w, err = segment.CreateWAL(segment.WALPath(dir, activeSeq), policy)
	}
	if err != nil {
		return nil, err
	}
	c.durableDir = dir
	c.walSeq = activeSeq
	c.wal.Store(w)
	// Generations below the checkpoint are garbage a crashed cleanup
	// may have left behind.
	if err := segment.RemoveObsolete(dir, seq); err != nil {
		return nil, err
	}
	if user.graph != nil && !sameGraph(user.graph, logGraph) {
		if err := c.Checkpoint(); err != nil {
			c.CloseDurable()
			return nil, fmt.Errorf("ned: checkpointing the attached graph: %w", err)
		}
	}
	return c, nil
}

// loadCheckpoint opens and fully decodes one checkpoint segment.
func loadCheckpoint(path string, opts ...CorpusOption) (*Corpus, error) {
	f, err := faultfs.Default().Open(path)
	if err != nil {
		return nil, err
	}
	c, err := LoadCorpus(f, opts...)
	f.Close()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// replay is what replaying the log has left to apply to the loaded
// scan: the nodes to re-extract, the full-item upserts, and the nodes
// removed. A node is in at most one of extract and ups.
type replay struct {
	extract map[NodeID]bool
	ups     map[NodeID]ned.Item
	gone    map[NodeID]bool
}

func newReplay() *replay {
	return &replay{extract: map[NodeID]bool{}, ups: map[NodeID]ned.Item{}, gone: map[NodeID]bool{}}
}

// applyRecovered applies one replayed mutation record to the (not yet
// shared) corpus, whose view graph is the log's graph. A graph edit
// moves that graph to its next version and removes the nodes beyond its
// node range; named nodes join rp.extract, which finishReplay derives
// once replay ends; full-item upserts join rp.ups; deletes join
// rp.gone. Every part is absolute, so applying a record twice
// converges.
//
// Extraction waits for the end of replay because the graph replay ends
// on yields the same signature for every named node as the graph its
// record was logged against: a later edit that reaches the node's
// neighborhood names it again (UpdateGraph refreshes every indexed node
// an edit reaches), and one that does not leaves its signature as it
// was.
func (c *Corpus) applyRecovered(rec segment.Record, rp *replay) error {
	view := c.view.Load()
	if e := rec.Graph; e != nil {
		if view.g == nil {
			return fmt.Errorf("wal graph edit in a log whose checkpoint has no graph")
		}
		if e.NumNodes < view.g.NumNodes() {
			for v := range nodesOf(view.scan) {
				if int(v) >= e.NumNodes {
					rp.gone[v] = true
				}
			}
			for v := range rp.extract {
				if int(v) >= e.NumNodes {
					delete(rp.extract, v)
					rp.gone[v] = true
				}
			}
			for v := range rp.ups {
				if int(v) >= e.NumNodes {
					delete(rp.ups, v)
					rp.gone[v] = true
				}
			}
		}
		view = &corpusView{g: graph.Patch(view.g, e.NumNodes, e.Removed, e.Added), scan: view.scan}
		c.view.Store(view)
	}
	for _, v := range rec.Extract {
		if view.g == nil {
			return fmt.Errorf("wal record names node %d in a log whose checkpoint has no graph", v)
		}
		if int(v) >= view.g.NumNodes() {
			return fmt.Errorf("wal record names node %d outside the log's graph [0, %d)", v, view.g.NumNodes())
		}
		rp.extract[v] = true
		delete(rp.ups, v)
	}
	for i := range rec.Upserts {
		it := rec.Upserts[i]
		if it.K != c.k {
			return fmt.Errorf("wal upsert of node %d has k=%d, corpus has k=%d", it.Node, it.K, c.k)
		}
		if c.cfg.directed != (it.In != nil) {
			return fmt.Errorf("wal upsert of node %d disagrees with corpus directedness", it.Node)
		}
		ned.ProfileItem(&it, c.dict)
		rp.ups[it.Node] = it
		delete(rp.extract, it.Node)
	}
	for _, v := range rec.Deletes {
		rp.gone[v] = true
		delete(rp.ups, v)
		delete(rp.extract, v)
	}
	return nil
}

// finishReplay splices what replay left into the scan: the removals and
// upserts, then the nodes replay named, extracted in parallel from the
// graph replay ended on.
func (c *Corpus) finishReplay(rp *replay) {
	view := c.view.Load()
	scan := view.scan
	if len(rp.gone)+len(rp.ups) > 0 {
		var ups *ned.Rows
		if len(rp.ups) > 0 {
			ups = ned.RowsOf(slices.Collect(maps.Values(rp.ups)))
		}
		scan, _ = scan.Splice(ups, slices.Collect(maps.Keys(rp.gone)))
	}
	if len(rp.extract) > 0 {
		nodes := slices.Sorted(maps.Keys(rp.extract))
		scan, _ = scan.Splice(ned.BuildRows(view.g, nodes, c.k, c.cfg.directed, c.dict, c.cfg.workers), nil)
	}
	c.view.Store(&corpusView{g: view.g, scan: scan})
}

// sameGraph reports whether a and b (either may be nil) are the same
// graph version.
func sameGraph(a, b *Graph) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() || a.Directed() != b.Directed() {
		return false
	}
	removed, added := graph.EdgeDiff(a, b)
	return len(removed)+len(added) == 0
}

// commit makes one mutation call visible by storing nv as the view,
// and on a durable corpus the call's record (the nodes to extract, the
// nodes removed, the graph edit) first appends to the WAL, the store running under the log's commit mutex — so publish
// order is WAL order, and Checkpoint can cut a log generation that
// matches a published view exactly. An append failure publishes nothing — the
// call never happened, for queries and recovery alike — and degrades
// the corpus: the WAL is wedged, so no later mutation could be made
// durable either, and acknowledging it would be a lie. A call that
// changed nothing (an UpdateGraph to an equal graph) has nothing to
// log.
func (c *Corpus) commit(rec segment.Record, nv *corpusView) error {
	w := c.wal.Load()
	if w == nil || rec.Empty() {
		c.view.Store(nv)
		return nil
	}
	if err := w.Commit(rec, func() { c.view.Store(nv) }); err != nil {
		c.degrade("wal commit", err)
		return fmt.Errorf("%w: %w", ErrDegraded, err)
	}
	return nil
}

// Checkpoint writes the current corpus as a fresh checkpoint segment
// and rotates the mutation log: the view is captured under the log's
// commit mutex at the cut — it holds exactly the mutations the retired
// generations do, none of the new one's — the segment is written
// outside all locks (queries and mutations keep running), the written
// file is re-read and structurally verified, and only then are the
// superseded generations deleted — a torn or bit-flipped checkpoint
// must never destroy the generations that could recover it. If any
// step fails the corpus degrades but stays consistent on disk: the
// surviving generations recover every committed mutation.
//
// On a degraded corpus, Checkpoint is the recovery path: it attempts
// the verified full-segment rewrite that is the only way back to
// accepting mutations.
func (c *Corpus) Checkpoint() error {
	c.durMu.Lock()
	defer c.durMu.Unlock()
	w := c.wal.Load()
	if w == nil {
		return ErrNotDurable
	}
	if c.degraded.Load() != nil {
		return c.recoverLocked()
	}
	next := c.walSeq + 1
	var cut *corpusView
	if err := w.Rotate(segment.WALPath(c.durableDir, next), func() { cut = c.view.Load() }); err != nil {
		// The rotate either failed to create the new generation (old log
		// intact) or wedged syncing the old one; both mean durable
		// storage is misbehaving under us.
		c.degrade("wal rotate", err)
		return fmt.Errorf("%w: %w", ErrDegraded, err)
	}
	// The active log IS generation next now, even if the segment write
	// below fails: recovery replays every generation at or above the
	// latest checkpoint, so advancing unconditionally keeps the naming
	// truthful.
	c.walSeq = next
	if err := c.writeCheckpointFile(next, cut); err != nil {
		c.degrade("checkpoint write", err)
		return fmt.Errorf("%w: %w", ErrDegraded, err)
	}
	if err := c.verifyCheckpointFile(next); err != nil {
		// The rename landed but the bytes do not read back whole. Leave
		// the generations below in place — they are the recovery story —
		// and quarantine the bad file so a crash right now does not
		// recover from it.
		if segment.Quarantine(segment.CheckpointPath(c.durableDir, next)) == nil {
			c.quarantined.Add(1)
		}
		c.degrade("checkpoint verify", err)
		return fmt.Errorf("%w: %w", ErrDegraded, err)
	}
	return segment.RemoveObsolete(c.durableDir, next)
}

// recoverLocked is the verified full-segment rewrite that clears
// degraded mode. The broken WAL is abandoned where it lies (its
// committed prefix stays replayable); a brand-new checkpoint
// generation is written atomically and verified by readback, a fresh
// WAL starts beside it, and only once both exist does the corpus
// resume accepting mutations. Any failure leaves the corpus degraded
// and the directory exactly as recoverable as before the attempt.
func (c *Corpus) recoverLocked() error {
	c.recoveryAttempts.Add(1)
	next := c.walSeq + 1
	if err := c.writeCheckpointFile(next, c.view.Load()); err != nil {
		return fmt.Errorf("%w: recovery checkpoint: %w", ErrDegraded, err)
	}
	if err := c.verifyCheckpointFile(next); err != nil {
		if segment.Quarantine(segment.CheckpointPath(c.durableDir, next)) == nil {
			c.quarantined.Add(1)
		}
		return fmt.Errorf("%w: recovery checkpoint verify: %w", ErrDegraded, err)
	}
	// A previous failed recovery attempt may have created this WAL
	// generation and then died before the swap; it holds nothing an
	// epoch ever published without, so it is safe to clear.
	walPath := segment.WALPath(c.durableDir, next)
	if err := faultfs.Default().Remove(walPath); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("%w: recovery wal cleanup: %w", ErrDegraded, err)
	}
	w, err := segment.CreateWAL(walPath, c.walPolicy())
	if err != nil {
		return fmt.Errorf("%w: recovery wal create: %w", ErrDegraded, err)
	}
	old := c.wal.Load()
	c.wal.Store(w)
	c.walSeq = next
	if old != nil {
		old.Close()
	}
	c.degraded.Store(nil)
	// Cleanup failures after this point do not re-degrade: the new
	// generation is verified and active, leftovers are garbage.
	segment.RemoveObsolete(c.durableDir, next)
	return nil
}

// walPolicy reports the active log's fsync policy so recovery can
// carry it into the replacement log.
func (c *Corpus) walPolicy() FsyncPolicy {
	if w := c.wal.Load(); w != nil {
		return w.Policy()
	}
	return FsyncAlways
}

// writeCheckpointFile atomically writes view v as checkpoint generation
// seq.
func (c *Corpus) writeCheckpointFile(seq int64, v *corpusView) error {
	path := segment.CheckpointPath(c.durableDir, seq)
	if err := fsx.WriteFileAtomic(path, func(w io.Writer) error { return c.writeSegment(w, v) }); err != nil {
		return fmt.Errorf("ned: checkpoint %d: %w", seq, err)
	}
	return nil
}

// verifyCheckpointFile re-reads checkpoint generation seq from disk
// and walks its section framing, checksums and all. What the write
// path believes it wrote is irrelevant; only bytes that read back
// whole may retire older generations or clear degraded mode.
func (c *Corpus) verifyCheckpointFile(seq int64) error {
	path := segment.CheckpointPath(c.durableDir, seq)
	f, err := faultfs.Default().Open(path)
	if err != nil {
		return fmt.Errorf("ned: verifying checkpoint %d: %w", seq, err)
	}
	defer f.Close()
	if err := segment.Verify(f); err != nil {
		return fmt.Errorf("ned: verifying checkpoint %d: %w", seq, err)
	}
	return nil
}

// CloseDurable syncs and closes the mutation log and detaches the
// durable directory. Mutations after the close fail; queries keep
// serving. The corpus is NOT checkpointed — the log already holds
// everything committed. Detaching clears degraded mode: the refusal
// guarded a durability promise that no longer exists.
func (c *Corpus) CloseDurable() error {
	c.durMu.Lock()
	defer c.durMu.Unlock()
	w := c.wal.Load()
	if w == nil {
		return nil
	}
	err := w.Close()
	c.wal.Store(nil)
	c.durableDir = ""
	c.degraded.Store(nil)
	return err
}

// DurableStats reports whether the corpus is durable and, if so, the
// records and bytes appended to the active log generation — the signal
// serving layers use to decide when to Checkpoint.
func (c *Corpus) DurableStats() (walRecords, walBytes int64, durable bool) {
	w := c.wal.Load()
	if w == nil {
		return 0, 0, false
	}
	r, b := w.Stats()
	return r, b, true
}

// DurableHealth is the serving layer's view of a corpus's durability:
// readiness, degraded-mode detail, and recovery bookkeeping.
type DurableHealth struct {
	Durable                bool      // a durable directory is attached
	Degraded               bool      // mutations currently refused
	Reason                 string    // which operation degraded it
	Since                  time.Time // when
	RecoveryAttempts       int64     // rewrite attempts while degraded (lifetime)
	QuarantinedCheckpoints int64     // checkpoints renamed aside (this open + since)
	WALRecords             int64     // records in the active log generation
	WALBytes               int64     // bytes in the active log generation
}

// DurableHealth reports the corpus's durability health. Cheap enough
// for every /readyz and /metrics scrape.
func (c *Corpus) DurableHealth() DurableHealth {
	h := DurableHealth{
		RecoveryAttempts:       c.recoveryAttempts.Load(),
		QuarantinedCheckpoints: c.quarantined.Load(),
	}
	if w := c.wal.Load(); w != nil {
		h.Durable = true
		h.WALRecords, h.WALBytes = w.Stats()
	}
	if info := c.degraded.Load(); info != nil {
		h.Degraded = true
		h.Reason = info.Reason
		h.Since = info.Since
	}
	return h
}
