package wal

import (
	"errors"
	"io"
	"os"
	"syscall"
	"testing"
)

// faultFile stands in front of the active segment and injects one kind of
// disk fault.
type faultFile struct {
	segFile
	failSync bool  // the next Sync fails with EIO, later ones succeed
	writeErr error // every Write fails with it, writing nothing
	short    bool  // every Write writes one byte less than asked, with no error
	syncs    int   // Sync calls that reached the file
}

func (f *faultFile) Write(p []byte) (int, error) {
	switch {
	case f.writeErr != nil:
		return 0, f.writeErr
	case f.short && len(p) > 0:
		return f.segFile.Write(p[:len(p)-1])
	}
	return f.segFile.Write(p)
}

// Sync reports a writeback error once, as Linux does: the failed pages are
// marked clean, so the fsync after it returns success for data that may
// never reach the disk. The real file is not synced on the failing call.
func (f *faultFile) Sync() error {
	f.syncs++
	if f.failSync {
		f.failSync = false
		return syscall.EIO
	}
	return f.segFile.Sync()
}

// inject puts f in front of w's active segment. w must hold no buffered
// appends.
func inject(w *WAL, f *faultFile) {
	f.segFile = w.f
	w.f = f
	w.bw.Reset(f)
}

// TestDiskFaultPoisons is the fail-stop rule: after the first failed write,
// flush, fsync or segment create, every Append, Sync, TruncateBefore and
// Close fails with ErrPoisoned, however healthy the disk looks afterwards,
// Durable still names the last record a successful fsync covered, and a
// reopen replays a prefix of the appends that ends at a whole record.
func TestDiskFaultPoisons(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cause error
		// fault arms the fault on an open log holding 4 synced records and
		// returns the first call's error.
		fault func(t *testing.T, w *WAL, dir string) error
	}{
		{"fsync EIO reported once", syscall.EIO, func(t *testing.T, w *WAL, _ string) error {
			inject(w, &faultFile{failSync: true})
			appendN(t, w, 2, "late")
			return w.Sync()
		}},
		{"ENOSPC on write", syscall.ENOSPC, func(t *testing.T, w *WAL, _ string) error {
			inject(w, &faultFile{writeErr: syscall.ENOSPC})
			appendN(t, w, 2, "late")
			return w.Sync()
		}},
		{"short write", io.ErrShortWrite, func(t *testing.T, w *WAL, _ string) error {
			inject(w, &faultFile{short: true})
			appendN(t, w, 2, "late")
			return w.Sync()
		}},
		{"segment create fails", os.ErrExist, func(t *testing.T, w *WAL, dir string) error {
			// The next segment's name is taken, so O_EXCL refuses it.
			if err := os.WriteFile(segPath(dir, w.NextLSN()), nil, 0o644); err != nil {
				t.Fatal(err)
			}
			w.segBytes = 1
			_, err := w.Append([]byte("late-0000"))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w := mustOpen(t, dir, segmentBytes)
			appendN(t, w, 4, "good")
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			faulted := tc.fault(t, w, dir)
			if !errors.Is(faulted, tc.cause) {
				t.Fatalf("the faulted call returned %v, want %v", faulted, tc.cause)
			}
			synced := w.Sync()
			if synced == nil {
				t.Fatal("Sync after the fault returned nil: the log would ACK data the disk may have dropped")
			}
			if d := w.Durable(); d != 4 {
				t.Fatalf("Durable %d after the fault, want 4: only the synced records are durable", d)
			}
			for _, err := range []error{faulted, synced} {
				if !errors.Is(err, ErrPoisoned) || !errors.Is(err, tc.cause) {
					t.Fatalf("%v: want ErrPoisoned wrapping %v", err, tc.cause)
				}
			}
			if _, err := w.Append([]byte("after")); !errors.Is(err, ErrPoisoned) {
				t.Fatalf("Append after the fault: %v, want ErrPoisoned", err)
			}
			if err := w.TruncateBefore(1 << 40); !errors.Is(err, ErrPoisoned) {
				t.Fatalf("TruncateBefore after the fault: %v, want ErrPoisoned", err)
			}
			if err := w.Close(); !errors.Is(err, ErrPoisoned) {
				t.Fatalf("Close after the fault: %v, want ErrPoisoned", err)
			}

			w2 := mustOpen(t, dir, segmentBytes)
			defer w2.Close()
			_, payloads := collect(t, w2)
			want := []string{"good-0000", "good-0001", "good-0002", "good-0003", "late-0000", "late-0001"}
			if len(payloads) < 4 || len(payloads) > len(want) {
				t.Fatalf("reopen replayed %q, want the 4 synced records and at most the 2 unsynced ones", payloads)
			}
			for i, p := range payloads {
				if p != want[i] {
					t.Fatalf("reopen replayed %q: record %d is not %q", payloads, i, want[i])
				}
			}
			if d := w2.Durable(); d != uint64(len(payloads)) {
				t.Fatalf("Durable %d after reopen, want the tail %d", d, len(payloads))
			}
			if lsn, err := w2.Append([]byte("fresh")); err != nil || lsn != uint64(len(payloads))+1 {
				t.Fatalf("append after reopen: lsn %d err %v, want lsn %d", lsn, err, len(payloads)+1)
			}
		})
	}
}

// TestPoisonedLogAborts: Abort still closes a poisoned log, even one whose
// failed rotation left no active segment, and a second Close is a no-op.
func TestPoisonedLogAborts(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, 1)
	appendN(t, w, 1, "only")
	if err := os.WriteFile(segPath(dir, w.NextLSN()), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("x")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append over a taken segment name: %v", err)
	}
	if err := w.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close after Abort: %v", err)
	}
	if _, err := w.Append(nil); err != ErrClosed {
		t.Fatalf("append after Abort: %v, want ErrClosed", err)
	}
}

// TestSyncCoversOnlyItsCall is group commit from the waiting side: a
// SyncTo whose record an fsync covered — the sink's ingest loop waiting for
// one batch — returns without an fsync of its own, even though more was
// appended meanwhile; that later record stays undurable until a Sync called
// after it.
func TestSyncCoversOnlyItsCall(t *testing.T) {
	w := mustOpen(t, t.TempDir(), segmentBytes)
	defer w.Close()
	f := &faultFile{}
	inject(w, f)
	appendN(t, w, 1, "first")
	target := w.NextLSN() - 1 // what a Sync called now must cover
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 1, "later")
	if err := w.SyncTo(target); err != nil || f.syncs != 1 || w.Durable() != 1 {
		t.Fatalf("covered sync: err %v, %d fsyncs, durable %d; want nil, 1, 1", err, f.syncs, w.Durable())
	}
	if err := w.Sync(); err != nil || f.syncs != 2 || w.Durable() != 2 {
		t.Fatalf("sync after the later append: err %v, %d fsyncs, durable %d; want nil, 2, 2", err, f.syncs, w.Durable())
	}
}
