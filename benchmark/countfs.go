package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"ned/internal/faultfs"
)

// countingFS wraps the real filesystem and counts what the durable
// stack does to it, per path class. It observes only: every call goes
// straight through, in order, and never fails on its own account. The
// traced run installs it with faultfs.Install around the in-process
// durable measurements; the daemon under test never sees it.
type countingFS struct {
	faultfs.FS
	wal, checkpoint, other fsCounts
}

// fsCounts is one path class's tally.
type fsCounts struct {
	writes, bytes, syncs, dirSyncs atomic.Int64
}

// allSyncs is every file and directory fsync seen so far.
func (c *countingFS) allSyncs() int64 {
	return c.wal.syncs.Load() + c.checkpoint.syncs.Load() + c.checkpoint.dirSyncs.Load() + c.other.syncs.Load()
}

func newCountingFS() *countingFS { return &countingFS{FS: faultfs.OS()} }

// class files a path under the WAL, the checkpoint segments (their
// atomic-write temporaries included), or everything else.
func (c *countingFS) class(path string) *fsCounts {
	switch base := filepath.Base(path); {
	case strings.HasPrefix(base, "wal-"):
		return &c.wal
	case strings.HasPrefix(base, "checkpoint-"):
		return &c.checkpoint
	default:
		return &c.other
	}
}

func (c *countingFS) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, n: c.class(path)}, nil
}

// SyncDir is charged to the checkpoint class: directory fsyncs make
// segment renames and log creations durable, both checkpoint work.
func (c *countingFS) SyncDir(dir string) error {
	c.checkpoint.dirSyncs.Add(1)
	return c.FS.SyncDir(dir)
}

type countingFile struct {
	faultfs.File
	n *fsCounts
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.writes.Add(1)
	f.n.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.n.syncs.Add(1)
	return f.File.Sync()
}
