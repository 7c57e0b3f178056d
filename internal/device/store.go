// Package device implements the block storage layer: page-granular backing
// stores (memory, file, null) and block devices — a simulated NVMe/SSD
// device whose timing is calibrated from the paper's Tables 1-2 (queue-depth
// dependent latency, sequential/random asymmetry, write-burst exhaustion and
// maintenance latency spikes), and a real device that executes I/O against a
// file for when KVell runs as an actual persistent store.
package device

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// PageSize is the block granularity of every device (4KB, as in the paper).
const PageSize = 4096

// Store is the page-granular backing medium of a device: where the bytes
// live, independent of how long access takes.
type Store interface {
	// ReadPages fills buf (len must be a multiple of PageSize) from the
	// pages starting at page.
	ReadPages(page int64, buf []byte) error
	// WritePages writes buf (len must be a multiple of PageSize) to the
	// pages starting at page.
	WritePages(page int64, buf []byte) error
	// Sync flushes written data to stable storage where applicable.
	Sync() error
	Close() error
}

// MemStore is an in-memory sparse page store. It is safe for concurrent use.
//
// Page arrays are shared copy-on-write between a store and its snapshots:
// Snapshot copies only the page map, and a store that writes a page it
// shares with another store first moves it to an array of its own. Image
// shares an array with a reader too, read-only: it stays the page's image,
// later writes showing through it, until the page is freed (its array may
// then carry another page) or, once a snapshot shares it, until the store
// writes the page (the array then stays the snapshot's).
type MemStore struct {
	//kvell:lint-ignore nogoroutine MemStore also backs RealDisk's concurrent executors; under the sim it is only touched from the single scheduler thread
	mu    sync.RWMutex
	pages map[int64]memPage
	// free recycles page arrays no store holds any more: engines constantly
	// free old pages and write fresh page numbers, and every write is a full
	// page copy, so reuse is invisible to readers.
	free []*[PageSize]byte
	// chunk is the unused tail of the last page chunk: fresh pages are
	// carved from chunks of memChunkPages, one heap object per chunk
	// instead of one per page.
	chunk [][PageSize]byte
}

// memPage is one page a MemStore holds: its image and, once a snapshot has
// shared the image, the number of stores holding it. The count lives beside
// the map entry rather than in the array, so a chunk stays 64 whole pages.
// A nil holders means this store is the only one that ever held the array.
type memPage struct {
	p       *[PageSize]byte
	holders *atomic.Int32
}

// zeroPage is the one image of every page a MemStore does not hold, shared
// by the buffer-less reads of all never-written pages. Nothing writes into
// it.
var zeroPage [PageSize]byte

// memChunkPages is how many fresh pages a MemStore allocates at once. A
// chunk stays reachable while any of its pages is, in a store or on a free
// list: at most 256 KB pinned by one live page.
const memChunkPages = 64

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{pages: make(map[int64]memPage)} }

// newPage returns a page array for a page the store is about to overwrite
// whole: a freed one if there is one, else the next of the current chunk.
// Its content is stale or zero.
func (m *MemStore) newPage() *[PageSize]byte {
	if f := len(m.free); f > 0 {
		p := m.free[f-1]
		m.free = m.free[:f-1]
		return p
	}
	if len(m.chunk) == 0 {
		m.chunk = make([][PageSize]byte, memChunkPages)
	}
	p := &m.chunk[0]
	m.chunk = m.chunk[1:]
	return p
}

// release gives up this store's hold on mp's array, which goes on the free
// list only if no other store still holds it.
func (m *MemStore) release(mp memPage) {
	if mp.holders == nil || mp.holders.Add(-1) == 0 {
		m.free = append(m.free, mp.p)
	}
}

func checkBuf(buf []byte) int {
	if len(buf) == 0 || len(buf)%PageSize != 0 {
		panic(fmt.Sprintf("device: buffer length %d not a positive multiple of %d", len(buf), PageSize))
	}
	return len(buf) / PageSize
}

// ReadPages implements Store. Never-written pages read as zeros.
func (m *MemStore) ReadPages(page int64, buf []byte) error {
	n := checkBuf(buf)
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i := 0; i < n; i++ {
		dst := buf[i*PageSize : (i+1)*PageSize]
		if mp, ok := m.pages[page+int64(i)]; ok {
			copy(dst, mp.p[:])
		} else {
			for j := range dst {
				dst[j] = 0
			}
		}
	}
	return nil
}

// Image returns the store's own array of page, read-only, or the shared
// zero page if the store does not hold page (see MemStore for how long the
// array stays the page's image).
func (m *MemStore) Image(page int64) []byte {
	m.mu.RLock()
	mp, ok := m.pages[page]
	m.mu.RUnlock()
	if !ok {
		return zeroPage[:]
	}
	return mp.p[:]
}

// WritePages implements Store. A page shared with another store is written
// to a fresh array; one whose other holders have all let go is written in
// place.
func (m *MemStore) WritePages(page int64, buf []byte) error {
	n := checkBuf(buf)
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < n; i++ {
		pg := page + int64(i)
		mp, ok := m.pages[pg]
		switch {
		case !ok:
			mp = memPage{p: m.newPage()}
			m.pages[pg] = mp
		case mp.holders != nil && mp.holders.Load() > 1:
			// Another store holds this array. A count of one, by contrast,
			// stays one while m.mu is held: only a holder raises a count,
			// by a snapshot of itself. So the last holder writes in place.
			old := mp
			mp = memPage{p: m.newPage()}
			m.pages[pg] = mp
			m.release(old)
		}
		copy(mp.p[:], buf[i*PageSize:(i+1)*PageSize])
	}
	return nil
}

// Sync implements Store (no-op).
func (m *MemStore) Sync() error { return nil }

// Close implements Store.
func (m *MemStore) Close() error { return nil }

// Pages returns the number of pages the store holds now: written and not
// freed since.
func (m *MemStore) Pages() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pages)
}

// Snapshot returns a copy of the store's current page images — the "disk
// at reboot" a fault injector hands to recovery, or a replica disk seeded
// from its leader. It copies the page map and shares every page array with
// the original, one more holder each; its free list and chunk start empty.
// Neither side sees the other's later writes, because a write to a shared
// page takes a fresh array, and a free only drops the freeing store's hold.
func (m *MemStore) Snapshot() *MemStore {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Map order is unobservable here: the loop only copies pointers and
	// hands each first-shared page a count from one batch, so no page
	// image, free list or chunk depends on the order.
	var fresh []atomic.Int32
	c := &MemStore{pages: make(map[int64]memPage, len(m.pages))}
	for pg, mp := range m.pages {
		if mp.holders == nil {
			if len(fresh) == 0 {
				// Enough for every page not yet visited.
				fresh = make([]atomic.Int32, len(m.pages)-len(c.pages))
			}
			mp.holders = &fresh[0]
			fresh = fresh[1:]
			mp.holders.Store(1)
			m.pages[pg] = mp
		}
		mp.holders.Add(1)
		c.pages[pg] = mp
	}
	return c
}

// FirstDiff returns the lowest page number whose image differs between m and
// o, a page only one of them holds included; differ is false when both hold
// the same pages with the same bytes.
func (m *MemStore) FirstDiff(o *MemStore) (page int64, differ bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	o.mu.RLock()
	defer o.mu.RUnlock()
	note := func(pg int64) {
		if !differ || pg < page {
			page, differ = pg, true
		}
	}
	for pg, mp := range m.pages {
		if q, ok := o.pages[pg]; !ok || (mp.p != q.p && *mp.p != *q.p) {
			note(pg)
		}
	}
	for pg := range o.pages {
		if _, ok := m.pages[pg]; !ok {
			note(pg)
		}
	}
	return page, differ
}

// Free discards the content of count pages starting at page (space reuse
// bookkeeping; reads of freed pages return zeros again).
func (m *MemStore) Free(page int64, count int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := int64(0); i < count; i++ {
		if mp, ok := m.pages[page+i]; ok {
			m.release(mp)
			delete(m.pages, page+i)
		}
	}
}

// FileStore is a page store backed by a real file.
type FileStore struct {
	f *os.File
}

// OpenFileStore opens (creating if needed) the file at path as a page store.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("device: open %s: %w", path, err)
	}
	return &FileStore{f: f}, nil
}

// ReadPages implements Store. Reads past EOF return zeros.
func (s *FileStore) ReadPages(page int64, buf []byte) error {
	checkBuf(buf)
	n, err := s.f.ReadAt(buf, page*PageSize)
	if err != nil && n < len(buf) {
		// Zero-fill past EOF; propagate real errors.
		if pe, ok := err.(*os.PathError); ok {
			return pe
		}
		for i := n; i < len(buf); i++ {
			buf[i] = 0
		}
	}
	return nil
}

// WritePages implements Store.
func (s *FileStore) WritePages(page int64, buf []byte) error {
	checkBuf(buf)
	_, err := s.f.WriteAt(buf, page*PageSize)
	return err
}

// Sync implements Store.
func (s *FileStore) Sync() error { return s.f.Sync() }

// Close implements Store.
func (s *FileStore) Close() error { return s.f.Close() }

// Size returns the file size in pages.
func (s *FileStore) Size() (int64, error) {
	st, err := s.f.Stat()
	if err != nil {
		return 0, err
	}
	return (st.Size() + PageSize - 1) / PageSize, nil
}

// NullStore discards writes and reads zeros. Used for very large simulated
// datasets where page contents are irrelevant to the measured behaviour.
type NullStore struct{}

// ReadPages implements Store.
func (NullStore) ReadPages(page int64, buf []byte) error {
	checkBuf(buf)
	for i := range buf {
		buf[i] = 0
	}
	return nil
}

// WritePages implements Store.
func (NullStore) WritePages(page int64, buf []byte) error { checkBuf(buf); return nil }

// Sync implements Store.
func (NullStore) Sync() error { return nil }

// Close implements Store.
func (NullStore) Close() error { return nil }
