package ned

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"ned/internal/faultfs"
	"ned/internal/segment"
)

// The chaos harness: every I/O failure the faultfs injector can script
// — EIO, ENOSPC, short writes, failed fsyncs, torn renames — swept
// across every filesystem operation of a full mutate/checkpoint
// lifecycle, plus a subprocess SIGKILL matrix for the crash points no
// in-process test can model. The invariant under every fault is the
// same: the corpus that recovers from the directory is node-identical
// to some prefix-consistent corpus — every acknowledged mutation
// present, every unacknowledged mutation absent, never a corrupt or
// half-applied state.

// faultScenario runs one deterministic durable lifecycle against dir
// with the injector installed: attach, a mutation burst with two
// checkpoints inside it, tolerating (and recording) injected failures.
// It returns the set of acknowledged removals. The corpus is abandoned
// without a clean close, exactly as a dying process leaves it.
func faultScenario(t *testing.T, dir string, g *Graph) (acked map[NodeID]bool, attached bool) {
	t.Helper()
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MakeDurable(dir, FsyncAlways); err != nil {
		return nil, false
	}
	acked = map[NodeID]bool{}
	for i := 0; i < 24; i++ {
		if err := c.Remove(NodeID(i)); err == nil {
			acked[NodeID(i)] = true
		} else if !errors.Is(err, ErrDegraded) {
			t.Fatalf("Remove(%d) failed outside the degraded contract: %v", i, err)
		}
		if i == 7 || i == 15 {
			// Checkpoint mid-burst: rotate, segment write, verify,
			// cleanup — and, when already degraded, the recovery rewrite.
			c.Checkpoint() // failure tolerated; degraded mode owns it
		}
	}
	return acked, true
}

// checkFaultRecovery opens dir and asserts the recovered corpus holds
// exactly the acknowledged mutations.
func checkFaultRecovery(t *testing.T, dir string, g *Graph, acked map[NodeID]bool) {
	t.Helper()
	c, err := OpenDurable(dir, FsyncAlways)
	if err != nil {
		t.Fatalf("OpenDurable after fault: %v", err)
	}
	defer c.CloseDurable()
	liveSet := liveItems(c)
	live := map[NodeID]bool{}
	for v := 0; v < g.NumNodes(); v++ {
		present := liveSet[NodeID(v)].Out != nil
		if acked[NodeID(v)] && present {
			t.Fatalf("acknowledged removal of node %d was lost", v)
		}
		if !acked[NodeID(v)] && !present {
			t.Fatalf("unacknowledged removal of node %d was applied", v)
		}
		if present {
			live[NodeID(v)] = true
		}
	}
	checkEquivalent(t, c, g, live, 2)
}

// TestFaultSweepEveryOp is the exhaustive failpoint sweep: the
// lifecycle runs once fault-free to enumerate its filesystem
// operations, then once per operation index with that operation
// scripted to fail with EIO. Every iteration must recover cleanly.
func TestFaultSweepEveryOp(t *testing.T) {
	g := randomGraph(50, 110, 510)

	// Dry run: count the scenario's filesystem operations.
	dry := t.TempDir()
	inj := faultfs.NewInjector(dry)
	restore := inj.Install()
	acked, attached := faultScenario(t, dry, g)
	total := inj.Ops()
	restore()
	if !attached || len(acked) != 24 {
		t.Fatalf("fault-free run acked %d of 24 (attached=%v)", len(acked), attached)
	}
	checkFaultRecovery(t, dry, g, acked)
	if total < 50 {
		t.Fatalf("scenario performed only %d ops; the sweep would be vacuous", total)
	}

	for at := int64(1); at <= total; at++ {
		dir := t.TempDir()
		inj := faultfs.NewInjector(dir).AddRule(faultfs.Rule{At: at, Fault: faultfs.FaultErr})
		restore := inj.Install()
		acked, attached := faultScenario(t, dir, g)
		inj.Reset() // recovery below must run clean
		if !attached {
			// The fault killed the attach itself: no durable promise was
			// ever made. The directory must hold no (or only unreadable)
			// state — never a loadable lie.
			restore()
			if HasDurableState(dir) {
				if _, err := OpenDurable(dir, FsyncAlways); err == nil {
					t.Fatalf("at=%d: failed MakeDurable left loadable state", at)
				}
			}
			continue
		}
		checkFaultRecovery(t, dir, g, acked)
		restore()
	}
}

// TestFaultSweepShortWrites repeats the sweep over the write
// operations only, tearing each mid-buffer with ENOSPC instead of
// failing it cleanly — the torn-frame producer.
func TestFaultSweepShortWrites(t *testing.T) {
	g := randomGraph(50, 110, 510)
	dry := t.TempDir()
	inj := faultfs.NewInjector(dry)
	restore := inj.Install()
	faultScenario(t, dry, g)
	total := inj.Ops()
	restore()

	for at := int64(1); at <= total; at++ {
		dir := t.TempDir()
		inj := faultfs.NewInjector(dir).AddRule(faultfs.Rule{
			At: at, Fault: faultfs.FaultShortWrite, Err: syscall.ENOSPC,
		})
		restore := inj.Install()
		acked, attached := faultScenario(t, dir, g)
		inj.Reset()
		if !attached {
			restore()
			continue
		}
		checkFaultRecovery(t, dir, g, acked)
		restore()
	}
}

// corpusState renders everything a reader of c can observe — the graph
// version, the live set, every live node's signature (both trees when
// directed) — for exact comparison against modelState.
func corpusState(c *Corpus) string {
	view := c.view.Load()
	var sb strings.Builder
	fmt.Fprintln(&sb, view.g.NumNodes(), view.g.Edges())
	for v := 0; v < view.g.NumNodes(); v++ {
		if it, ok := view.scan.Item(NodeID(v)); ok {
			fmt.Fprintln(&sb, v, it.Out.ParentVector())
			if it.In != nil {
				fmt.Fprintln(&sb, v, it.In.ParentVector())
			}
		}
	}
	return sb.String()
}

// modelState is corpusState of an undirected-NED corpus whose graph is
// g and which indexes exactly live, with signatures extracted from g.
func modelState(g *Graph, live map[NodeID]bool, k int) string {
	var sb strings.Builder
	fmt.Fprintln(&sb, g.NumNodes(), g.Edges())
	for v := 0; v < g.NumNodes(); v++ {
		if live[NodeID(v)] {
			fmt.Fprintln(&sb, v, NewSignature(g, NodeID(v), k).Tree.ParentVector())
		}
	}
	return sb.String()
}

// nodeRange is the node IDs [lo, hi).
func nodeRange(lo, hi int) []NodeID {
	var out []NodeID
	for v := lo; v < hi; v++ {
		out = append(out, NodeID(v))
	}
	return out
}

// multiNodeScenario runs a durable lifecycle of mutation calls that
// each touch several nodes — a Remove batch, an Insert batch, an
// UpdateGraph, a Remove batch and an Insert batch logged after the
// update (so a named-node record replays after a graph-edit record) —
// with the injector installed. After every call the corpus must be, as
// a whole, in the pre-call state or the post-call state, never between:
// post when the call was acknowledged (having appended exactly one WAL
// record), pre when it failed (with ErrDegraded).
//
// It returns the states recovery may land on: the last committed one,
// and the post-state of a call that failed (an unacknowledged call may
// survive a crash whole).
func multiNodeScenario(t *testing.T, dir string, g1, g2 *Graph) (recoverable []string, attached bool) {
	t.Helper()
	const k = 2
	c, err := NewCorpus(g1, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MakeDurable(dir, FsyncAlways); err != nil {
		return nil, false
	}
	g, live := g1, map[NodeID]bool{}
	for v := 0; v < g1.NumNodes(); v++ {
		live[NodeID(v)] = true
	}
	recoverable = []string{modelState(g, live, k)}
	setLive := func(nodes []NodeID, on bool) func() {
		return func() {
			for _, v := range nodes {
				live[v] = on
			}
		}
	}
	failed := false
	for _, call := range []struct {
		name  string
		do    func() error
		model func()
	}{
		{"Remove", func() error { return c.Remove(nodeRange(0, 12)...) }, setLive(nodeRange(0, 12), false)},
		{"Insert", func() error { return c.Insert(nodeRange(0, 7)...) }, setLive(nodeRange(0, 7), true)},
		{"UpdateGraph", func() error { _, err := c.UpdateGraph(g2); return err }, func() { g = g2 }},
		{"Remove", func() error { return c.Remove(nodeRange(20, 32)...) }, setLive(nodeRange(20, 32), false)},
		{"Insert", func() error { return c.Insert(nodeRange(8, 12)...) }, setLive(nodeRange(8, 12), true)},
	} {
		pre := modelState(g, live, k)
		gPre, livePre := g, maps.Clone(live)
		recsBefore, _, _ := c.DurableStats()
		err := call.do()
		call.model()
		post := modelState(g, live, k)
		got := corpusState(c)
		if err == nil {
			if got != post {
				t.Fatalf("committed %s left the corpus off its post-call state:\n got %s\nwant %s", call.name, got, post)
			}
			if recs, _, _ := c.DurableStats(); recs != recsBefore+1 {
				t.Fatalf("%s appended %d WAL records, want 1", call.name, recs-recsBefore)
			}
			recoverable = []string{post}
			continue
		}
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("%s failed outside the degraded contract: %v", call.name, err)
		}
		if got != pre {
			t.Fatalf("failed %s (%v) left the corpus off its pre-call state:\n got %s", call.name, c.Degraded().Reason, got)
		}
		if !failed { // whatever reached the disk reached it whole
			recoverable = append(recoverable, post)
		}
		g, live = gPre, livePre
		failed = true
	}
	return recoverable, true
}

// TestFaultSweepMultiShardCalls sweeps every filesystem operation of
// multiNodeScenario with a clean EIO and with an ENOSPC short write:
// under each fault every call lands whole or not at all, in memory
// (asserted inside the scenario) and after OpenDurable.
func TestFaultSweepMultiShardCalls(t *testing.T) {
	const k = 2
	g1 := randomGraph(50, 110, 570)
	g2 := withExtraEdges(g1, 571, 4)
	var refreshed []NodeID
	for v := 0; v < g1.NumNodes(); v++ {
		if fmt.Sprint(NewSignature(g1, NodeID(v), k).Tree.ParentVector()) != fmt.Sprint(NewSignature(g2, NodeID(v), k).Tree.ParentVector()) {
			refreshed = append(refreshed, NodeID(v))
		}
	}
	if len(refreshed) < 2 {
		t.Fatal("the graph update refreshes fewer than two signatures; the sweep would not cover a multi-node call")
	}

	dry := t.TempDir()
	inj := faultfs.NewInjector(dry)
	restore := inj.Install()
	recoverable, attached := multiNodeScenario(t, dry, g1, g2)
	total := inj.Ops()
	restore()
	if !attached || len(recoverable) != 1 {
		t.Fatalf("fault-free run: attached=%v, %d recoverable states", attached, len(recoverable))
	}

	for _, fault := range []faultfs.Rule{
		{Fault: faultfs.FaultErr},
		{Fault: faultfs.FaultShortWrite, Err: syscall.ENOSPC},
	} {
		for at := int64(1); at <= total; at++ {
			dir := t.TempDir()
			fault.At = at
			rule := fault
			inj := faultfs.NewInjector(dir).AddRule(rule)
			restore := inj.Install()
			recoverable, attached := multiNodeScenario(t, dir, g1, g2)
			inj.Reset() // recovery below must run clean
			if attached {
				c, err := OpenDurable(dir, FsyncAlways)
				if err != nil {
					t.Fatalf("fault %d at=%d: OpenDurable: %v", fault.Fault, at, err)
				}
				if got := corpusState(c); !slices.Contains(recoverable, got) {
					t.Fatalf("fault %d at=%d: recovered a state no call sequence produces:\n got %s\nwant one of %q", fault.Fault, at, got, recoverable)
				}
				c.CloseDurable()
			}
			restore()
		}
	}
}

// A failed WAL commit degrades the corpus: the mutation is refused and
// unapplied, later mutations fail fast, reads keep serving, and a
// verified Checkpoint is the only way back.
func TestDegradedModeStickyUntilVerifiedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(60, 130, 520)
	inj := faultfs.NewInjector(dir)
	defer inj.Install()()

	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MakeDurable(dir, FsyncAlways); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(NodeID(1)); err != nil {
		t.Fatal(err)
	}

	// Every write under the directory fails from here: the WAL commit
	// that trips degradation AND the checkpoint rewrite recovery needs.
	inj.AddRule(faultfs.Rule{Op: faultfs.OpWrite, Fault: faultfs.FaultErr, Err: syscall.ENOSPC})
	if err := c.Remove(NodeID(2)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("faulted Remove: err = %v, want ErrDegraded", err)
	}
	info := c.Degraded()
	if info == nil || info.Reason != "wal commit" || !errors.Is(info.Cause, syscall.ENOSPC) {
		t.Fatalf("Degraded() = %+v", info)
	}
	// Sticky: the next mutation is refused at entry, before touching
	// the wedged log.
	if err := c.Insert(NodeID(1)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Insert while degraded: err = %v, want ErrDegraded", err)
	}
	if h := c.DurableHealth(); !h.Degraded || h.Reason != "wal commit" {
		t.Fatalf("DurableHealth = %+v", h)
	}
	// Reads are untouched: the last published epochs keep serving.
	if _, err := c.KNN(context.Background(), NodeID(5), 5); err != nil {
		t.Fatalf("KNN while degraded: %v", err)
	}
	// The refused mutation never half-applied.
	if liveItems(c)[NodeID(2)].Out == nil {
		t.Fatal("refused Remove(2) was applied anyway")
	}

	// Recovery while the disk is still broken fails and stays degraded.
	if err := c.Checkpoint(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Checkpoint on broken disk: err = %v, want ErrDegraded", err)
	}
	if c.Degraded() == nil {
		t.Fatal("failed recovery cleared degraded mode")
	}
	attempts := c.DurableHealth().RecoveryAttempts
	if attempts == 0 {
		t.Fatal("recovery attempt not counted")
	}

	// Disk heals: the verified rewrite clears the state.
	inj.Reset()
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("recovery Checkpoint: %v", err)
	}
	if c.Degraded() != nil {
		t.Fatal("verified checkpoint did not clear degraded mode")
	}
	if err := c.Remove(NodeID(2)); err != nil {
		t.Fatalf("Remove after recovery: %v", err)
	}
	if err := c.CloseDurable(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenDurable(dir, FsyncAlways)
	if err != nil {
		t.Fatalf("OpenDurable after recovery: %v", err)
	}
	defer c2.CloseDurable()
	live := map[NodeID]bool{}
	for v := 0; v < g.NumNodes(); v++ {
		live[NodeID(v)] = true
	}
	delete(live, 1)
	delete(live, 2)
	checkEquivalent(t, c2, g, live, 2)
}

// A checkpoint whose rename tears (the crash-torn-rename model: the
// destination lands truncated) must fail verification, quarantine the
// bad generation, and leave the previous generations in place — they
// are the recovery story a torn checkpoint must never replace.
func TestTornRenameCheckpointQuarantinedAndRecoverable(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(60, 130, 530)
	inj := faultfs.NewInjector(dir)
	defer inj.Install()()

	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MakeDurable(dir, FsyncAlways); err != nil {
		t.Fatal(err)
	}
	live := mutateBurst(t, c, g)

	inj.AddRule(faultfs.Rule{Op: faultfs.OpRename, Path: "checkpoint-", Fault: faultfs.FaultTornRename})
	if err := c.Checkpoint(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("torn-rename Checkpoint: err = %v, want ErrDegraded", err)
	}
	inj.Reset()
	if info := c.Degraded(); info == nil || info.Reason != "checkpoint verify" {
		t.Fatalf("Degraded() = %+v, want checkpoint verify", info)
	}
	// The torn generation was renamed aside, not left shadowing.
	if _, err := os.Stat(segment.CheckpointPath(dir, 1) + ".quarantined"); err != nil {
		t.Fatalf("torn checkpoint not quarantined: %v", err)
	}
	if h := c.DurableHealth(); h.QuarantinedCheckpoints == 0 {
		t.Fatalf("quarantine not counted: %+v", h)
	}
	// Generation 0 — checkpoint and log — survived: verify runs before
	// cleanup, so the torn file could not retire its recovery story.
	if _, err := os.Stat(segment.CheckpointPath(dir, 0)); err != nil {
		t.Fatal("verified-before-cleanup violated: generation 0 checkpoint gone")
	}
	if _, err := os.Stat(segment.WALPath(dir, 0)); err != nil {
		t.Fatal("verified-before-cleanup violated: generation 0 wal gone")
	}

	// A process dying right here must recover everything acknowledged.
	c2, err := OpenDurable(dir, FsyncAlways)
	if err != nil {
		t.Fatalf("OpenDurable after torn checkpoint: %v", err)
	}
	checkEquivalent(t, c2, g, live, 2)
	c2.CloseDurable()

	// And the degraded original recovers in-process too.
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("recovery Checkpoint: %v", err)
	}
	if c.Degraded() != nil {
		t.Fatal("recovery did not clear degraded mode")
	}
	c.CloseDurable()
}

// An unreadable newest checkpoint at recovery time is quarantined and
// recovery falls back to the previous generation plus the surviving
// log tails — no committed mutation lost.
func TestOpenDurableQuarantinesUnreadableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(60, 130, 540)
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MakeDurable(dir, FsyncNone); err != nil {
		t.Fatal(err)
	}
	live := mutateBurst(t, c, g)

	// Checkpoint under a cleanup fault: generation 1 lands verified,
	// but generation 0 (checkpoint AND log) survives the failed
	// RemoveObsolete — exactly the window a crashed cleanup leaves.
	inj := faultfs.NewInjector(dir).AddRule(faultfs.Rule{Op: faultfs.OpRemove, Fault: faultfs.FaultErr})
	restore := inj.Install()
	// Unlink failures on obsolete generations are tolerated (garbage,
	// not state): the checkpoint itself succeeds and generation 0 stays.
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint with failing cleanup: %v", err)
	}
	restore()
	if _, err := os.Stat(segment.CheckpointPath(dir, 0)); err != nil {
		t.Fatalf("expected generation 0 to survive the failed cleanup: %v", err)
	}
	// Cleanup failure is maintenance debt, not a durability failure:
	// the corpus still accepts mutations (they land in generation 1).
	if err := c.Remove(NodeID(51)); err != nil {
		t.Fatalf("Remove after cleanup failure: %v", err)
	}
	delete(live, 51)
	if err := c.CloseDurable(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest checkpoint on disk.
	path := segment.CheckpointPath(dir, 1)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x20
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenDurable(dir, FsyncNone)
	if err != nil {
		t.Fatalf("OpenDurable with unreadable newest checkpoint: %v", err)
	}
	defer c2.CloseDurable()
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Fatalf("bad checkpoint not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("bad checkpoint still in place under its own name")
	}
	if h := c2.DurableHealth(); h.QuarantinedCheckpoints != 1 {
		t.Fatalf("QuarantinedCheckpoints = %d, want 1", h.QuarantinedCheckpoints)
	}
	// Fallback: generation 0 checkpoint + wal-0 replay + wal-1 replay
	// reconstruct every committed mutation.
	checkEquivalent(t, c2, g, live, 2)
}

// With every checkpoint generation unreadable, recovery must refuse
// loudly — an empty corpus pretending to be the data would be the
// worst possible outcome.
func TestOpenDurableRefusesWhenNoCheckpointLoads(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(40, 90, 550)
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MakeDurable(dir, FsyncNone); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	path := segment.CheckpointPath(dir, 0)
	blob, _ := os.ReadFile(path)
	blob[len(blob)/2] ^= 0x20
	os.WriteFile(path, blob, 0o644)
	if _, err := OpenDurable(dir, FsyncNone); err == nil {
		t.Fatal("OpenDurable fabricated a corpus out of zero loadable checkpoints")
	}
	// The evidence was kept, renamed aside.
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Fatalf("unloadable checkpoint not quarantined: %v", err)
	}
}

// --- subprocess crash matrix ---

// TestDurableCrashMatrix extends the SIGKILL test to faultfs-scripted
// crash points: the helper lifecycle (attach, removals, periodic
// checkpoints) runs once fault-free to count its filesystem
// operations, then is SIGKILLed at evenly spaced operation indices —
// inside WAL appends, rotations, checkpoint writes, verifies, and
// cleanups. Every directory left behind must recover to a
// prefix-consistent corpus.
func TestDurableCrashMatrix(t *testing.T) {
	if os.Getenv("NED_FAULT_DIR") != "" {
		t.Skip("helper-only environment")
	}
	if testing.Short() {
		t.Skip("subprocess matrix is not -short work")
	}
	const n = 120

	// Fault-free run: learn the op count and the full ack sequence.
	total, acked, killed := runCrashHelper(t, t.TempDir(), 0)
	if killed || total == 0 || acked != n {
		t.Fatalf("fault-free helper: ops=%d acked=%d killed=%v", total, acked, killed)
	}

	// Twelve crash points spread across the lifecycle, always including
	// the very first and very last operation.
	points := map[int64]bool{1: true, total: true}
	for i := int64(1); i <= 10; i++ {
		points[1+i*(total-1)/11] = true
	}
	for at := range points {
		at := at
		t.Run(fmt.Sprintf("op%d", at), func(t *testing.T) {
			dir := t.TempDir()
			_, lastAcked, killed := runCrashHelper(t, dir, at)
			if !killed {
				t.Fatalf("helper survived its scripted crash at op %d", at)
			}
			if !HasDurableState(dir) {
				// Died before the attach finished: no durability promise
				// existed, and no acknowledgment can have been printed.
				if lastAcked > 0 {
					t.Fatalf("helper acked %d removals with no durable state", lastAcked)
				}
				return
			}
			c, err := OpenDurable(dir, FsyncAlways)
			if err != nil {
				t.Fatalf("OpenDurable after crash at op %d: %v", at, err)
			}
			defer c.CloseDurable()
			// The helper removes node i at step i: the live set must be
			// exactly {m..n-1} with m >= lastAcked.
			liveSet := liveItems(c)
			m := n - len(liveSet)
			if m < lastAcked {
				t.Fatalf("crash at op %d lost acknowledged removals: recovered %d, acked %d", at, m, lastAcked)
			}
			for v := 0; v < n; v++ {
				if present, want := liveSet[NodeID(v)].Out != nil, v >= m; present != want {
					t.Fatalf("crash at op %d: live set is not a burst prefix at node %d", at, v)
				}
			}
			g := randomGraph(n, 2*n, 560)
			live := map[NodeID]bool{}
			for v := m; v < n; v++ {
				live[NodeID(v)] = true
			}
			checkEquivalent(t, c, g, live, 2)
		})
	}
}

// crashEditGraphs are the graph versions of the helper's edit
// lifecycle: the corpus starts on the first, UpdateGraph moves it to the
// second.
func crashEditGraphs() (*Graph, *Graph) {
	g1 := randomGraph(120, 240, 561)
	return g1, editedGraph(g1, 120, 562)
}

// crashEditCalls are the helper's edit lifecycle after the attach: a
// named-node Insert, an UpdateGraph, and an Insert logged after the
// edit. The returned models give each call's post-state.
func crashEditCalls(c *Corpus) (calls []func() error, posts []func(t *testing.T) string) {
	const k = 2
	g1, g2 := crashEditGraphs()
	live := func(hi int) map[NodeID]bool {
		m := map[NodeID]bool{}
		for v := 0; v < hi; v++ {
			m[NodeID(v)] = true
		}
		return m
	}
	calls = []func() error{
		func() error { return c.Insert(nodeRange(60, 70)...) },
		func() error { _, err := c.UpdateGraph(g2); return err },
		func() error { return c.Insert(nodeRange(70, 80)...) },
	}
	posts = []func(t *testing.T) string{
		func(t *testing.T) string { return freshState(t, g1, live(70), k) },
		func(t *testing.T) string { return freshState(t, g2, live(70), k) },
		func(t *testing.T) string { return freshState(t, g2, live(80), k) },
	}
	return calls, posts
}

// TestDurableCrashBeforePublish kills the helper between the WAL append
// and the publish of each call of the edit lifecycle — at the fsync
// that follows the frame's write — a named-node Insert, an UpdateGraph
// and an Insert after it. The frame reached the file whole, so recovery
// must land on the killed call's post-state, though it was never
// acknowledged: its nodes re-extracted from the graph the log ends on.
func TestDurableCrashBeforePublish(t *testing.T) {
	if os.Getenv("NED_FAULT_DIR") != "" {
		t.Skip("helper-only environment")
	}
	if testing.Short() {
		t.Skip("subprocess matrix is not -short work")
	}
	_, posts := crashEditCalls(nil)
	for i, post := range posts {
		t.Run(fmt.Sprintf("call%d", i), func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=^TestDurableCrashHelper$", "-test.v")
			cmd.Env = append(os.Environ(),
				"NED_FAULT_DIR="+dir,
				"NED_FAULT_EDIT_SYNC="+strconv.Itoa(i+1))
			out, err := cmd.Output()
			var exitErr *exec.ExitError
			if !errors.As(err, &exitErr) {
				t.Fatalf("helper survived its scripted crash: %v", err)
			}
			if acked := parseAcks(out); acked != i {
				t.Fatalf("helper acknowledged %d calls before the kill in call %d", acked, i)
			}
			c, err := OpenDurable(dir, FsyncAlways)
			if err != nil {
				t.Fatalf("OpenDurable: %v", err)
			}
			defer c.CloseDurable()
			if got, want := corpusState(c), post(t); got != want {
				t.Fatalf("recovered off the killed call's post-state:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestDurableCrashTornCheckpointWrite crashes the helper mid-write of
// a checkpoint file — half the buffer lands, then SIGKILL — and
// asserts recovery sweeps or quarantines the residue and falls back.
func TestDurableCrashTornCheckpointWrite(t *testing.T) {
	if os.Getenv("NED_FAULT_DIR") != "" {
		t.Skip("helper-only environment")
	}
	if testing.Short() {
		t.Skip("subprocess matrix is not -short work")
	}
	const n = 120
	for _, nth := range []int64{1, 2} {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run=^TestDurableCrashHelper$", "-test.v")
		cmd.Env = append(os.Environ(),
			"NED_FAULT_DIR="+dir,
			"NED_FAULT_TORN_NTH="+strconv.FormatInt(nth, 10))
		out, _ := cmd.Output()
		lastAcked := parseAcks(out)
		if !HasDurableState(dir) {
			continue
		}
		c, err := OpenDurable(dir, FsyncAlways)
		if err != nil {
			t.Fatalf("OpenDurable after torn checkpoint write (nth=%d): %v", nth, err)
		}
		liveSet := liveItems(c)
		m := n - len(liveSet)
		if m < lastAcked {
			t.Fatalf("torn checkpoint write lost acknowledged removals: recovered %d, acked %d", m, lastAcked)
		}
		c.CloseDurable()
	}
}

// runCrashHelper spawns the helper subprocess, scripted to SIGKILL
// itself at filesystem operation index at (0 = run to completion). It
// returns the op total the helper reported (0 when killed), how many
// removals it acknowledged, and whether it died by signal.
func runCrashHelper(t *testing.T, dir string, at int64) (total int64, acked int, killed bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestDurableCrashHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"NED_FAULT_DIR="+dir,
		"NED_FAULT_AT="+strconv.FormatInt(at, 10))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if s, ok := strings.CutPrefix(line, "STEP "); ok {
			if step, err := strconv.Atoi(strings.TrimSpace(s)); err == nil {
				acked = step + 1
			}
		}
		if s, ok := strings.CutPrefix(line, "OPS "); ok {
			if v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64); err == nil {
				total = v
			}
		}
	}
	err = cmd.Wait()
	var exitErr *exec.ExitError
	if errors.As(err, &exitErr) {
		if ws, ok := exitErr.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
			killed = ws.Signal() == syscall.SIGKILL
		}
	}
	return total, acked, killed
}

// parseAcks extracts the last acknowledged step count from helper
// output.
func parseAcks(out []byte) int {
	acked := 0
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		if s, ok := strings.CutPrefix(sc.Text(), "STEP "); ok {
			if step, err := strconv.Atoi(strings.TrimSpace(s)); err == nil {
				acked = step + 1
			}
		}
	}
	return acked
}

// TestDurableCrashHelper is the subprocess half of the crash matrix:
// it installs a faultfs injector scripted to SIGKILL at the requested
// operation index, then runs the lifecycle — attach, remove node i at
// step i with a checkpoint every 8 steps — acknowledging each commit
// on stdout. Without a crash script it runs to completion and reports
// its operation count. With NED_FAULT_EDIT_SYNC=j it runs the edit
// lifecycle of crashEditCalls instead, killed at the fsync of its j-th
// WAL commit.
func TestDurableCrashHelper(t *testing.T) {
	dir := os.Getenv("NED_FAULT_DIR")
	if dir == "" {
		t.Skip("not in helper mode")
	}
	const n = 120
	inj := faultfs.NewInjector(dir)
	if v := os.Getenv("NED_FAULT_AT"); v != "" && v != "0" {
		at, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		inj.AddRule(faultfs.Rule{At: at, Fault: faultfs.FaultCrash})
	}
	if v := os.Getenv("NED_FAULT_TORN_NTH"); v != "" {
		nth, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		inj.AddRule(faultfs.Rule{
			Op: faultfs.OpWrite, Path: "checkpoint-", Nth: nth, Fault: faultfs.FaultCrashTorn,
		})
	}
	if v := os.Getenv("NED_FAULT_EDIT_SYNC"); v != "" {
		nth, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		inj.AddRule(faultfs.Rule{Op: faultfs.OpSync, Path: "wal-", Nth: nth, Fault: faultfs.FaultCrash})
		defer inj.Install()()
		g1, _ := crashEditGraphs()
		c, err := NewCorpus(g1, 2, WithNodes(nodeRange(0, 60)))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.MakeDurable(dir, FsyncAlways); err != nil {
			t.Fatal(err)
		}
		calls, _ := crashEditCalls(c)
		for i, call := range calls {
			if err := call(); err != nil {
				t.Fatal(err)
			}
			fmt.Printf("STEP %d\n", i)
		}
		return
	}
	defer inj.Install()()

	g := randomGraph(n, 2*n, 560)
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MakeDurable(dir, FsyncAlways); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := c.Remove(NodeID(i)); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("STEP %d\n", i)
		if i%8 == 7 {
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	fmt.Printf("OPS %d\n", inj.Ops())
}
