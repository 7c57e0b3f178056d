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
	"sort"
	"sync"
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
type MemStore struct {
	//kvell:lint-ignore nogoroutine MemStore also backs RealDisk's concurrent executors; under the sim it is only touched from the single scheduler thread
	mu    sync.RWMutex
	pages map[int64]*[PageSize]byte
	// free recycles page arrays released by Free: engines constantly free
	// old pages and write fresh page numbers, and every write is a full
	// page copy, so reuse is invisible to readers.
	free []*[PageSize]byte
	// chunk is the unused tail of the last page chunk: fresh pages are
	// carved from chunks of memChunkPages, one heap object per chunk
	// instead of one per page.
	chunk [][PageSize]byte
}

// memChunkPages is how many fresh pages a MemStore allocates at once. A
// chunk stays reachable while any of its pages is, in the store or on its
// free list: at most 256 KB pinned by one live page.
const memChunkPages = 64

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{pages: make(map[int64]*[PageSize]byte)} }

// newPage returns a page array for a page number the store does not hold:
// a freed one if there is one, else the next of the current chunk. Its
// content is stale or zero; every caller overwrites all of it.
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
		if p, ok := m.pages[page+int64(i)]; ok {
			copy(dst, p[:])
		} else {
			for j := range dst {
				dst[j] = 0
			}
		}
	}
	return nil
}

// WritePages implements Store.
func (m *MemStore) WritePages(page int64, buf []byte) error {
	n := checkBuf(buf)
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < n; i++ {
		p, ok := m.pages[page+int64(i)]
		if !ok {
			p = m.newPage()
			m.pages[page+int64(i)] = p
		}
		copy(p[:], buf[i*PageSize:(i+1)*PageSize])
	}
	return nil
}

// Sync implements Store (no-op).
func (m *MemStore) Sync() error { return nil }

// Close implements Store.
func (m *MemStore) Close() error { return nil }

// Pages returns the number of distinct pages ever written.
func (m *MemStore) Pages() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pages)
}

// Snapshot returns a deep copy of the store's current page images — the
// "disk at reboot" a fault injector hands to recovery. The copy shares
// nothing with the live store, so post-crash mutations by still-unwinding
// procs cannot leak into it; its pages come from chunks of its own, and its
// free list starts empty.
func (m *MemStore) Snapshot() *MemStore {
	m.mu.RLock()
	defer m.mu.RUnlock()
	// Collect and sort the page numbers first: map iteration order is
	// randomized per run and the copy must not depend on it (the copies
	// themselves are order-independent, but keeping the discipline uniform
	// is cheaper than arguing each site).
	nums := make([]int64, 0, len(m.pages))
	for pg := range m.pages {
		nums = append(nums, pg)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	c := &MemStore{pages: make(map[int64]*[PageSize]byte, len(nums))}
	for _, pg := range nums {
		cp := c.newPage()
		*cp = *m.pages[pg]
		c.pages[pg] = cp
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
	for pg, p := range m.pages {
		if q, ok := o.pages[pg]; !ok || *p != *q {
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
		if p, ok := m.pages[page+i]; ok {
			m.free = append(m.free, p)
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
