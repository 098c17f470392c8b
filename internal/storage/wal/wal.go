// Package wal implements the write-ahead log that gives the XomatiQ
// warehouse the crash-recovery property the paper claims from its
// commercial RDBMS ("we can exploit the concurrency access and crash
// recovery features of an RDBMS").
//
// Design: redo-only logical logging over heap pages with a NO-STEAL
// buffer policy. Heap mutations append page-directed records (init page,
// set aux, insert-at, delete, update — or, on the bulk-load path, one
// image per filled page: the page's used bytes, its free space left out
// and zero-filled again on replay) tagged with a transaction id; a
// commit record, followed by an fsync, makes the transaction durable.
// Dirty data pages are only written back at a checkpoint, which flushes
// the buffer pool and then truncates the log. Recovery therefore replays
// the ops of committed transactions, in log order, onto a data file that
// is exactly the state of the last checkpoint. Index pages are not
// logged: indexes are rebuilt from heap contents when recovery replays
// any record.
//
// Record framing: [4]length [4]crc32 payload. A torn tail (short frame or
// bad checksum) ends recovery at the last intact record, so a crash
// mid-append loses only the uncommitted tail. Logs written when page
// images were always 8192 bytes replay unchanged.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"xomatiq/internal/obs"
	"xomatiq/internal/storage/disk"
)

// Op identifies a log record type.
type Op uint8

// Log record types.
const (
	OpInitPage  Op = iota + 1 // payload: pageID, kind
	OpSetAux                  // payload: pageID, aux
	OpInsertAt                // payload: pageID, slot, record bytes
	OpDelete                  // payload: pageID, slot
	OpUpdate                  // payload: pageID, slot, record bytes
	OpCommit                  // no payload
	OpPageImage               // payload: pageID, kind, page image (page.AppendImage)
)

// A record on disk is a frame header, [4]length [4]crc32 of what follows,
// then the record: [8]txn [1]op [4]page [2]slot [1]kind [4]aux and Data.
const (
	frameHeader = 8
	recHeader   = 20
)

// Record is one logical log record.
type Record struct {
	Txn  uint64
	Op   Op
	Page uint32
	Slot uint16
	Kind uint8  // for OpInitPage
	Aux  uint32 // for OpSetAux
	Data []byte // for OpInsertAt / OpUpdate
}

// Log is an append-only write-ahead log file.
type Log struct {
	mu   sync.Mutex
	f    disk.File
	aw   *appendWriter
	w    *bufio.Writer
	path string
	size int64
	hdr  [frameHeader + recHeader]byte // Append's header scratch, under mu
	m    *obs.WALMetrics               // always non-nil; SetMetrics swaps in the engine's
}

// appendWriter turns a positional disk.File into the sequential writer
// the buffered appender needs, tracking the append offset explicitly so
// the File interface does not have to expose Seek.
type appendWriter struct {
	f   disk.File
	off int64
}

func (w *appendWriter) Write(p []byte) (int, error) {
	n, err := w.f.WriteAt(p, w.off)
	w.off += int64(n)
	return n, err
}

// Open opens (creating if absent) the log at path, positioned to append.
func Open(path string) (*Log, error) {
	return OpenFS(disk.OS{}, path)
}

// OpenFS opens (creating if absent) the log at path within fs.
func OpenFS(fs disk.FS, path string) (*Log, error) {
	f, err := fs.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	size, err := f.Size()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("wal: stat: %w", err), f.Close())
	}
	aw := &appendWriter{f: f, off: size}
	return &Log{f: f, aw: aw, w: bufio.NewWriter(aw), path: path, size: size,
		m: &obs.WALMetrics{}}, nil
}

// SetMetrics points the log's counters at the given registry group. Must
// be called before concurrent use (the engine calls it at open time).
func (l *Log) SetMetrics(m *obs.WALMetrics) {
	l.mu.Lock()
	l.m = m
	l.mu.Unlock()
}

func decodeRecord(p []byte) (Record, error) {
	if len(p) < recHeader {
		return Record{}, fmt.Errorf("wal: record of %d bytes too short", len(p))
	}
	r := Record{
		Txn:  binary.LittleEndian.Uint64(p[0:]),
		Op:   Op(p[8]),
		Page: binary.LittleEndian.Uint32(p[9:]),
		Slot: binary.LittleEndian.Uint16(p[13:]),
		Kind: p[15],
		Aux:  binary.LittleEndian.Uint32(p[16:]),
	}
	if len(p) > recHeader {
		r.Data = append([]byte(nil), p[recHeader:]...)
	}
	return r, nil
}

// Append adds a record to the log buffer. It is not durable until Sync.
// r.Data is checksummed and written where it lies — a page image is never
// copied on its way to the buffer — so the caller may reuse it on return.
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// The header is built in the log's own scratch array: a local one
	// would be moved to the heap by the checksum and writer calls.
	hdr := l.hdr[:]
	binary.LittleEndian.PutUint32(hdr[0:], uint32(recHeader+len(r.Data)))
	rec := hdr[frameHeader:]
	binary.LittleEndian.PutUint64(rec[0:], r.Txn)
	rec[8] = byte(r.Op)
	binary.LittleEndian.PutUint32(rec[9:], r.Page)
	binary.LittleEndian.PutUint16(rec[13:], r.Slot)
	rec[15] = r.Kind
	binary.LittleEndian.PutUint32(rec[16:], r.Aux)
	sum := crc32.Update(crc32.ChecksumIEEE(rec), crc32.IEEETable, r.Data)
	binary.LittleEndian.PutUint32(hdr[4:], sum)
	if _, err := l.w.Write(hdr); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if _, err := l.w.Write(r.Data); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	n := uint64(len(hdr) + len(r.Data))
	l.size += int64(n)
	l.m.Appends.Inc()
	l.m.Bytes.Add(n)
	switch r.Op {
	case OpPageImage:
		l.m.PageImageBytes.Add(n)
	case OpCommit:
		l.m.CommitBytes.Add(n)
	default:
		l.m.RowOpBytes.Add(n)
	}
	return nil
}

// Flush writes buffered records through to the log file without
// fsyncing. After Flush, a reader of the file (Scan, CommittedOps) sees
// every record appended so far; rollback uses this to re-derive the
// committed state without forcing durability.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	return nil
}

// Sync flushes buffered records and fsyncs the log file. A transaction is
// durable once its commit record has been Synced.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.m.Fsyncs.Inc()
	return nil
}

// DiscardBuffer drops any buffered-but-unwritten records and clears the
// writer's sticky error, re-anchoring the append position at the bytes
// actually on disk. After a failed append or flush the bufio.Writer
// refuses all further writes; rollback calls DiscardBuffer so the log
// can keep serving later transactions. Records already written through
// to the file are unaffected (an uncommitted tail is ignored by Scan).
func (l *Log) DiscardBuffer() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Reset(l.aw)
	l.size = l.aw.off
}

// Size reports the current log length in bytes (including buffered data).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Truncate empties the log; called after a checkpoint has made all logged
// effects durable in the data file.
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: truncate flush: %w", err)
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: truncate sync: %w", err)
	}
	l.m.Fsyncs.Inc()
	l.size = 0
	l.aw.off = 0
	l.w.Reset(l.aw)
	return nil
}

// Close flushes and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return errors.Join(err, l.f.Close())
	}
	return l.f.Close()
}

// Scan reads the log from the start, calling fn for every intact record.
// It stops silently at a torn tail (truncated frame or checksum mismatch),
// which is the expected state after a crash mid-append.
func Scan(path string, fn func(Record) error) error {
	return ScanFS(disk.OS{}, path, fn)
}

// ScanFS is Scan within fs. A missing log reads as empty (OpenFile
// creates it), which is the same recovery outcome.
func ScanFS(fs disk.FS, path string, fn func(Record) error) (err error) {
	f, err := fs.OpenFile(path)
	if err != nil {
		return fmt.Errorf("wal: scan open: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	size, err := f.Size()
	if err != nil {
		return fmt.Errorf("wal: scan stat: %w", err)
	}
	r := bufio.NewReader(io.NewSectionReader(f, 0, size))
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil // clean end or torn header
			}
			// A real I/O error is NOT a torn tail: treating it as one
			// would silently report committed records as absent, and a
			// recovery or rollback acting on that would destroy them.
			return fmt.Errorf("wal: scan read: %w", err)
		}
		length := binary.LittleEndian.Uint32(hdr[:4])
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if length > 1<<24 {
			return nil // corrupt length: treat as torn tail
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil // torn payload
			}
			return fmt.Errorf("wal: scan read: %w", err)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return nil // torn record
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return nil
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// CommittedOps scans the log and returns, in log order, the operations of
// every transaction that has a commit record. Operations of uncommitted
// transactions (the crash-torn tail) are dropped.
func CommittedOps(path string) ([]Record, error) {
	return CommittedOpsFS(disk.OS{}, path)
}

// CommittedOpsFS is CommittedOps within fs.
func CommittedOpsFS(fs disk.FS, path string) ([]Record, error) {
	var all []Record
	committed := map[uint64]bool{}
	if err := ScanFS(fs, path, func(r Record) error {
		if r.Op == OpCommit {
			committed[r.Txn] = true
			return nil
		}
		all = append(all, r)
		return nil
	}); err != nil {
		return nil, err
	}
	ops := all[:0]
	for _, r := range all {
		if committed[r.Txn] {
			ops = append(ops, r)
		}
	}
	return ops, nil
}
