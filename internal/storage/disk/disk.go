// Package disk manages a page-addressed database file: fixed-size pages
// identified by PageID, with allocation, an in-memory free list, read,
// write and sync. It is the lowest layer of the XomatiQ storage engine;
// the buffer pool sits on top.
package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"xomatiq/internal/storage/page"
)

// PageID identifies a page within a Manager's file. Page 0 is the file
// header and is never handed out.
type PageID uint32

// InvalidPage is the zero PageID; it never refers to an allocated page.
const InvalidPage PageID = 0

// header layout in page 0:
//
//	0..8   magic "XOMATIQ\x01"
//	8..12  numPages (uint32, includes the header page)
//	12..16 reserved, zero (once the head of an on-disk free list that no
//	       release ever put a page on)
//	16     flags (bit 0: index anchors stale, rebuild before trusting)
//
// Files written before the flags byte existed are 16 bytes short of it;
// the missing byte reads as zero flags.
//
// The free list is not in the file. Which pages are free is derived
// state, like the indexes: whoever owns the file's contents knows which
// pages it can reach and hands the rest over with SetFree after opening
// or rolling back. Nothing about the list can therefore be torn by a
// crash or disagree with the log.
var magic = [8]byte{'X', 'O', 'M', 'A', 'T', 'I', 'Q', 1}

const flagIndexesStale = 1 << 0

// Manager owns one database file and serialises page allocation. Reads
// and writes of distinct pages may proceed concurrently.
type Manager struct {
	mu           sync.Mutex
	f            File
	numPages     uint32
	free         []PageID // descending, so the lowest id is popped first
	indexesStale bool
}

// Open opens (or creates) the database file at path on the operating
// system's filesystem.
func Open(path string) (*Manager, error) {
	return OpenFS(OS{}, path)
}

// OpenFS opens (or creates) the database file at path within fs.
func OpenFS(fs FS, path string) (*Manager, error) {
	f, err := fs.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("disk: open %s: %w", path, err)
	}
	m := &Manager{f: f}
	size, err := f.Size()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("disk: stat %s: %w", path, err), f.Close())
	}
	if size == 0 {
		m.numPages = 1
		if err := m.writeHeader(); err != nil {
			return nil, errors.Join(err, f.Close())
		}
		// Sync the newborn header before anything else touches the file:
		// without the barrier a crash could persist later page writes
		// while losing the header, leaving a file with content but no
		// magic — indistinguishable from a foreign file.
		if err := f.Sync(); err != nil {
			return nil, errors.Join(fmt.Errorf("disk: sync header: %w", err), f.Close())
		}
		return m, nil
	}
	var hdr [page.Size]byte
	n, err := f.ReadAt(hdr[:17], 0)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, errors.Join(fmt.Errorf("disk: read header: %w", err), f.Close())
	}
	if n < 16 {
		return nil, errors.Join(fmt.Errorf("disk: %s header truncated at %d bytes", path, n), f.Close())
	}
	if [8]byte(hdr[:8]) != magic {
		return nil, errors.Join(fmt.Errorf("disk: %s is not a xomatiq database file", path), f.Close())
	}
	m.numPages = binary.LittleEndian.Uint32(hdr[8:])
	if n >= 17 {
		m.indexesStale = hdr[16]&flagIndexesStale != 0
	}
	// A crash can persist the header's page count while losing the file
	// extension it describes (the header is a small atomic write, the
	// extension a separate one; nothing orders them without a sync).
	// Pages past the real end of file never held synced data, so their
	// contents are either uncommitted (forgotten) or governed by the WAL,
	// whose replay re-extends the file through EnsureAllocated. Trust the
	// file, not the header.
	if got := uint32(size / page.Size); got < m.numPages {
		m.numPages = got
		if m.numPages < 1 {
			m.numPages = 1
		}
	}
	return m, nil
}

func (m *Manager) writeHeader() error {
	var hdr [17]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], m.numPages)
	if m.indexesStale {
		hdr[16] |= flagIndexesStale
	}
	if _, err := m.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("disk: write header: %w", err)
	}
	return nil
}

// IndexesStale reports the header flag that marks on-disk index anchors
// as untrustworthy.
func (m *Manager) IndexesStale() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.indexesStale
}

// SetIndexesStale records (or clears) the stale-indexes flag in the
// header. The write becomes durable at the next Sync; callers that raise
// the flag must sync before the writes the flag guards — in practice the
// buffer pool's checkpoint flush, which ends in a sync, provides that
// barrier before the WAL is ever truncated.
func (m *Manager) SetIndexesStale(stale bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.indexesStale == stale {
		return nil
	}
	m.indexesStale = stale
	return m.writeHeader()
}

// NumPages reports the file size in pages, including the header page.
func (m *Manager) NumPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int(m.numPages)
}

// Allocate returns a page ID for a new page: the lowest free one, or the
// next past the end of the file. The page contents are undefined; callers
// must initialise before use.
func (m *Manager) Allocate() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.free); n > 0 {
		id := m.free[n-1]
		m.free = m.free[:n-1]
		return id, nil
	}
	id := PageID(m.numPages)
	m.numPages++
	// Extend the file so later ReadPage of this id succeeds.
	var zero [page.Size]byte
	if _, err := m.f.WriteAt(zero[:], int64(id)*page.Size); err != nil {
		return InvalidPage, fmt.Errorf("disk: extend file: %w", err)
	}
	return id, m.writeHeader()
}

// EnsureAllocated extends the file so that page id exists. WAL replay
// uses it: a crash can lose the header update for pages that were
// allocated and logged but whose header write never reached disk.
func (m *Manager) EnsureAllocated(id PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if uint32(id) < m.numPages {
		return nil
	}
	var zero [page.Size]byte
	for uint32(id) >= m.numPages {
		if _, err := m.f.WriteAt(zero[:], int64(m.numPages)*page.Size); err != nil {
			return fmt.Errorf("disk: extend file: %w", err)
		}
		m.numPages++
	}
	return m.writeHeader()
}

// Free returns pages to the free list. The caller vouches that nothing
// reaches them any more; their contents stay as they are until reuse.
func (m *Manager) Free(ids ...PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.freeLocked(ids)
}

// SetFree replaces the free list with ids: every page the owner of the
// file's contents found unreachable when it opened the file or rolled
// it back to its last commit.
func (m *Manager) SetFree(ids []PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.free = m.free[:0]
	return m.freeLocked(ids)
}

func (m *Manager) freeLocked(ids []PageID) error {
	for _, id := range ids {
		if id == InvalidPage || uint32(id) >= m.numPages {
			return fmt.Errorf("disk: free invalid page %d", id)
		}
	}
	m.free = append(m.free, ids...)
	sort.Slice(m.free, func(i, j int) bool { return m.free[i] > m.free[j] })
	return nil
}

// FreePages returns a copy of the free list (stats, consistency checks).
func (m *Manager) FreePages() []PageID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]PageID(nil), m.free...)
}

// ReadPage fills buf (page.Size bytes) with the page contents.
func (m *Manager) ReadPage(id PageID, buf []byte) error {
	if len(buf) != page.Size {
		return fmt.Errorf("disk: ReadPage buffer of %d bytes", len(buf))
	}
	if id == InvalidPage {
		return fmt.Errorf("disk: read invalid page 0")
	}
	_, err := m.f.ReadAt(buf, int64(id)*page.Size)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("disk: page %d beyond end of file", id)
	}
	if err != nil {
		return fmt.Errorf("disk: read page %d: %w", id, err)
	}
	return nil
}

// WritePage writes buf (page.Size bytes) as the page contents.
func (m *Manager) WritePage(id PageID, buf []byte) error {
	if len(buf) != page.Size {
		return fmt.Errorf("disk: WritePage buffer of %d bytes", len(buf))
	}
	if id == InvalidPage {
		return fmt.Errorf("disk: write invalid page 0")
	}
	if _, err := m.f.WriteAt(buf, int64(id)*page.Size); err != nil {
		return fmt.Errorf("disk: write page %d: %w", id, err)
	}
	return nil
}

// Sync flushes the file to stable storage.
func (m *Manager) Sync() error {
	if err := m.f.Sync(); err != nil {
		return fmt.Errorf("disk: sync: %w", err)
	}
	return nil
}

// Close syncs and closes the file.
func (m *Manager) Close() error {
	if err := m.Sync(); err != nil {
		return errors.Join(err, m.f.Close())
	}
	return m.f.Close()
}
