// Package wal implements the segmented, CRC-framed write-ahead log behind
// the serve subcommand's crash-safety contract: every report is appended
// (and group-commit fsynced) before it is acknowledged, so a kill -9 loses
// nothing a client was told was accepted.
//
// Layout: a directory of segment files named %020d.wal, where the name is
// the log sequence number (LSN) of the segment's first record. Records are
// framed as
//
//	uint32le payload length | uint32le CRC-32C(payload) | payload
//
// and LSNs are implicit: the i-th record of segment S has LSN S+i. Appends
// go through a buffered writer; durability happens at Sync (group commit —
// the serve handler syncs once per HTTP request, not per record). Rotation
// closes and fsyncs the full segment, creates the next one, and fsyncs the
// directory so the rename-free layout is crash-atomic. Recovery (run inside
// Open) scans from the tail: a torn or corrupt frame truncates the log at
// the last whole record instead of failing — exactly what a mid-write crash
// leaves behind — and any segments after the corruption are dropped.
//
// The WAL is the durable queue, not the archive: once the server has
// folded a prefix of the log into a durable snapshot it calls
// TruncateBefore to drop wholly-covered segments. That is the only
// retention: nothing else ever deletes a record, because anything past the
// snapshot watermark may be acknowledged data that exists nowhere else. A
// full disk surfaces as an append error.
//
// The disk fails stop: the first failed write, flush, fsync or segment
// create poisons the WAL (ErrPoisoned), and only a fresh Open, whose tail
// repair cuts whatever the failure tore, comes back from it. A retry is no
// answer: Linux reports a writeback error to a file descriptor once and
// marks the pages clean, so a second fsync succeeds for data that may never
// reach the disk.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Errors returned by the WAL.
var (
	// ErrClosed reports use after Close/Abort.
	ErrClosed = errors.New("wal: closed")
	// ErrTooLarge reports an Append payload above MaxRecordBytes.
	ErrTooLarge = errors.New("wal: record too large")
	// ErrPoisoned wraps the failure that stopped the log; every later
	// Append, Sync, TruncateBefore and Close returns it.
	ErrPoisoned = errors.New("wal: poisoned")
)

// MaxRecordBytes bounds one record's payload; the frame length field is
// validated against it during recovery so a corrupt length cannot force a
// huge allocation.
const MaxRecordBytes = 16 << 20

const (
	frameHeader = 8 // uint32 length + uint32 crc
	segExt      = ".wal"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segmentBytes rotates the active segment once its size reaches it.
const segmentBytes = 1 << 20

// segFile is the active segment: an *os.File, or a test's fault injector.
type segFile interface {
	io.Writer
	Sync() error
	Close() error
}

// segment is one on-disk file: records [start, start+count).
type segment struct {
	start uint64
	count uint64
	path  string
}

// WAL is an append-only record log. All methods are safe for concurrent
// use.
type WAL struct {
	mu       sync.Mutex
	dir      string
	segBytes int64     // rotation size: segmentBytes, smaller in tests
	segs     []segment // ascending by start; last is active
	f        segFile   // active segment; nil after a failed rotation
	bw       *bufio.Writer
	next     atomic.Uint64 // LSN of the next record appended; written under mu, read without it
	size     int64         // active segment bytes (file + buffered)
	err      error         // sticky: ErrClosed, or the poison (wraps ErrPoisoned)
	durable  atomic.Uint64 // LSN the last fsync covered (at Open: the tail); read without mu

	truncations uint64                // corrupt/torn tails cut during recovery
	hdr         [frameHeader + 2]byte // append's frame header and typed envelope; under mu
}

func segPath(dir string, start uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%020d%s", start, segExt))
}

// Open creates dir if needed, recovers the existing log (truncating a torn
// or corrupt tail at the last whole record and dropping any segments past
// it), and returns a WAL positioned to append. LSNs start at 1 for a fresh
// log.
func Open(dir string) (*WAL, error) { return open(dir, segmentBytes) }

func open(dir string, segBytes int64) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{dir: dir, segBytes: segBytes}
	w.next.Store(1)
	if err := w.scan(); err != nil {
		return nil, err
	}
	if err := w.openActive(); err != nil {
		return nil, err
	}
	w.durable.Store(w.next.Load() - 1)
	return w, nil
}

// scan lists segments, verifies each frame, repairs the tail, and sets
// next. Corruption at any point truncates the log there: the bad segment is
// cut at the last whole record and every later segment is removed (a crash
// cannot produce valid data after a hole, so anything there is garbage).
func (w *WAL) scan() error {
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var starts []uint64
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != segExt {
			continue
		}
		var start uint64
		if _, err := fmt.Sscanf(name, "%020d", &start); err != nil {
			continue // not a segment; leave foreign files alone
		}
		starts = append(starts, start)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })

	for i, start := range starts {
		seg := segment{start: start, path: segPath(w.dir, start)}
		count, goodBytes, clean, err := verifySegment(seg.path)
		if err != nil {
			return err
		}
		seg.count = count
		if !clean {
			// Torn or corrupt tail: keep the whole records, drop the rest
			// of this segment and every segment after it.
			if err := os.Truncate(seg.path, int64(goodBytes)); err != nil {
				return fmt.Errorf("wal: truncate corrupt tail of %s: %w", seg.path, err)
			}
			w.truncations++
			for _, later := range starts[i+1:] {
				if err := os.Remove(segPath(w.dir, later)); err != nil && !errors.Is(err, os.ErrNotExist) {
					return fmt.Errorf("wal: drop post-corruption segment: %w", err)
				}
				w.truncations++
			}
			if count == 0 && len(w.segs) > 0 {
				// Nothing valid in this segment at all; drop the empty file
				// and let the previous segment be the tail.
				if err := os.Remove(seg.path); err != nil {
					return fmt.Errorf("wal: drop empty corrupt segment: %w", err)
				}
			} else {
				w.segs = append(w.segs, seg)
			}
			w.next.Store(seg.start + seg.count)
			if err := syncDir(w.dir); err != nil {
				return err
			}
			return nil
		}
		w.segs = append(w.segs, seg)
		w.next.Store(seg.start + seg.count)
	}
	return nil
}

// verifySegment walks a segment's frames. It returns the whole-record count,
// the byte offset after the last whole record, and clean=false when the file
// ends in a torn or corrupt frame.
func verifySegment(path string) (count, goodBytes uint64, clean bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var hdr [frameHeader]byte
	buf := make([]byte, 0, 4096)
	off := uint64(0)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return count, off, err == io.EOF, nil // EOF at a boundary is clean; ErrUnexpectedEOF is torn
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n > MaxRecordBytes {
			return count, off, false, nil // corrupt length
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return count, off, false, nil // torn payload
		}
		if crc32.Checksum(buf, crcTable) != crc {
			return count, off, false, nil // corrupt payload
		}
		off += frameHeader + uint64(n)
		count++
	}
}

// openActive opens the tail segment for appending, creating the first
// segment of a fresh log.
func (w *WAL) openActive() error {
	if len(w.segs) == 0 {
		return w.rotateLocked()
	}
	seg := &w.segs[len(w.segs)-1]
	f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	w.f = f
	w.bw = bufio.NewWriter(f)
	w.size = st.Size()
	return nil
}

// syncDir fsyncs a directory so entry creation/removal is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// fail poisons the log with op's failure err and returns it. Caller holds mu.
func (w *WAL) fail(op string, err error) error {
	w.err = fmt.Errorf("%w: %s: %w", ErrPoisoned, op, err)
	return w.err
}

// rotateLocked seals the active segment (flush + fsync + close) and starts
// the next one, fsyncing the directory so the new entry survives a crash.
// Any failure poisons the log. Caller holds mu.
func (w *WAL) rotateLocked() error {
	if w.f != nil {
		if err := w.flushSyncLocked(); err != nil {
			return err
		}
		err := w.f.Close()
		w.f = nil
		if err != nil {
			return w.fail("close segment", err)
		}
	}
	path := segPath(w.dir, w.next.Load())
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return w.fail("create segment", err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return w.fail("create segment", err)
	}
	w.f = f
	w.bw = bufio.NewWriter(f)
	w.size = 0
	w.segs = append(w.segs, segment{start: w.next.Load(), path: path})
	return nil
}

// flushSyncLocked pushes buffered frames to the OS and fsyncs; a failure
// poisons the log. Caller holds mu.
func (w *WAL) flushSyncLocked() error {
	if err := w.bw.Flush(); err != nil {
		return w.fail("flush", err)
	}
	if last := w.next.Load() - 1; w.durable.Load() < last {
		if err := w.f.Sync(); err != nil {
			return w.fail("fsync", err)
		}
		w.durable.Store(last)
	}
	return nil
}

// Append frames payload into the active segment and returns its LSN. The
// record is buffered; it is durable only after the next Sync (or
// rotation). Rotation happens before the append when the
// active segment is full, so a record never spans segments.
func (w *WAL) Append(payload []byte) (uint64, error) { return w.append(0, payload) }

// append is Append, behind the typed envelope of kind unless kind is 0.
func (w *WAL) append(kind Kind, payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	hdr := w.hdr[:frameHeader]
	if kind != 0 {
		hdr = append(hdr, typedMagic, byte(kind))
	}
	n := len(hdr) - frameHeader + len(payload)
	if n > MaxRecordBytes {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	if w.err != nil {
		return 0, w.err
	}
	if w.size >= w.segBytes && w.segs[len(w.segs)-1].count > 0 {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Update(crc32.Checksum(hdr[frameHeader:], crcTable), crcTable, payload))
	if _, err := w.bw.Write(hdr); err != nil {
		return 0, w.fail("append", err)
	}
	if _, err := w.bw.Write(payload); err != nil {
		return 0, w.fail("append", err)
	}
	lsn := w.next.Add(1) - 1
	w.segs[len(w.segs)-1].count++
	w.size += frameHeader + int64(n)
	return lsn, nil
}

// Sync makes every record appended before the call durable (group commit).
func (w *WAL) Sync() error { return w.SyncTo(w.next.Load() - 1) }

// SyncTo makes the records up to lsn durable, with no fsync of its own when
// one that ran while it waited for mu covered them: a caller that needs one
// record waits for no later append.
func (w *WAL) SyncTo(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || w.durable.Load() >= lsn {
		return w.err
	}
	return w.flushSyncLocked()
}

// Replay calls fn for every committed record in LSN order. It reads the
// segment files (committing buffered appends first so the log is
// self-consistent); fn errors abort the walk. Safe to call on a live WAL,
// but the serve path replays before serving traffic.
func (w *WAL) Replay(fn func(lsn uint64, payload []byte) error) error {
	w.mu.Lock()
	err := w.err
	if err == nil {
		err = w.flushSyncLocked()
	}
	segs := append([]segment(nil), w.segs...)
	w.mu.Unlock()
	if err != nil {
		return err
	}

	for _, seg := range segs {
		if err := replaySegment(seg, fn); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(seg segment, fn func(lsn uint64, payload []byte) error) error {
	f, err := os.Open(seg.path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var hdr [frameHeader]byte
	lsn := seg.start
	for i := uint64(0); i < seg.count; i++ {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return fmt.Errorf("wal: replay %s: %w", seg.path, err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n > MaxRecordBytes {
			return fmt.Errorf("wal: replay %s: frame length %d", seg.path, n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return fmt.Errorf("wal: replay %s: %w", seg.path, err)
		}
		if crc32.Checksum(buf, crcTable) != crc {
			return fmt.Errorf("wal: replay %s: CRC mismatch at lsn %d", seg.path, lsn)
		}
		if err := fn(lsn, buf); err != nil {
			return err
		}
		lsn++
	}
	return nil
}

// TruncateBefore drops segments whose every record has LSN < lsn — called
// after a snapshot covering the prefix is durable. The active segment is
// never dropped. Only whole segments go; records < lsn may survive in a
// partially-covered segment and will be replayed again on restart (the
// monitor's dedup makes that harmless). A failed unlink does not poison the
// log: it leaves records on disk, it loses none.
func (w *WAL) TruncateBefore(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	removed := false
	for len(w.segs) > 1 && w.segs[0].start+w.segs[0].count <= lsn {
		if err := os.Remove(w.segs[0].path); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		w.segs = w.segs[1:]
		removed = true
	}
	if removed {
		return syncDir(w.dir)
	}
	return nil
}

// NextLSN returns the LSN the next Append will get.
func (w *WAL) NextLSN() uint64 { return w.next.Load() }

// Durable returns the LSN the last successful fsync covered: every record
// at or below it survives a crash. It never waits on an fsync in flight.
func (w *WAL) Durable() uint64 { return w.durable.Load() }

// Segments returns the retained segment count.
func (w *WAL) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segs)
}

// Truncations returns how many corrupt/torn tails recovery repaired —
// surfaced in serve's /metrics.
func (w *WAL) Truncations() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.truncations
}

// Close syncs and closes the log; a poisoned log is closed without a sync
// and returns its poison.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == ErrClosed {
		return nil
	}
	err := w.err
	if err == nil {
		err = w.flushSyncLocked()
	}
	if cerr := w.closeLocked(); err == nil {
		err = cerr
	}
	return err
}

// Abort closes the log WITHOUT flushing or syncing, discarding buffered
// appends — the kill -9 emulation used by the chaos harness: after Abort,
// disk holds exactly what the last Sync (or rotation) committed, as it
// would after a real crash.
func (w *WAL) Abort() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == ErrClosed {
		return nil
	}
	return w.closeLocked()
}

// closeLocked marks the log closed and closes the active segment, if a
// failed rotation left one. Caller holds mu.
func (w *WAL) closeLocked() error {
	w.err = ErrClosed
	if w.f == nil {
		return nil
	}
	return w.f.Close()
}
