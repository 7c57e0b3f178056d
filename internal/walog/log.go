package walog

import (
	"sort"

	"kvell/internal/costs"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/kv"
)

// PageIO is the owning engine's timed, blocking page I/O: the log's writes
// and replay reads pay whatever a system call costs that engine.
type PageIO interface {
	Read(c env.Ctx, page int64, buf []byte)
	Write(c env.Ctx, page int64, buf []byte)
}

// RegionPages is the page count every log-based engine reserves for its
// log at the start of disk 0, ahead of its data allocator.
const RegionPages = 1 << 20

// Log is a group-commit record log over the first RegionPages pages of a
// disk, with the writer discipline the format's recovery argument needs:
// one chunk write in flight at a time, the writer that closes a group
// returning only after its chunk completed, and pages handed out densely in
// claim order.
type Log struct {
	io    PageIO
	group int // group size in payload bytes; 0 is a chunk per record

	mu      env.Mutex
	writing bool   // a chunk write is in flight
	next    int64  // first unwritten page of the region
	payload []byte // the open group's records
	count   int    // records in payload
	chunk   []byte // owned by the writer that set writing
}

// NewLog returns an empty log behind io whose chunks carry at least group
// payload bytes each.
func NewLog(e env.Env, io PageIO, group int64) *Log {
	return &Log{io: io, group: int(group), mu: e.NewMutex()}
}

// Append adds one record to the open group. The writer whose record brings
// the group's payload to at least the group size closes it: it writes the
// group as one chunk and returns once the write has completed, reporting
// wrote. Every other writer returns at once, its record held in memory
// until a later writer closes the group — the window a crash loses, as
// with RocksDB's unsynced WAL (sync=false). With group size 0 every record
// is a chunk of its own, so an acknowledged operation is always in the
// log's valid prefix. A writer that finds a chunk in flight busy-waits for
// it, a costs.LogSlotSpin quantum at a time, and returns the number of
// quanta burnt for the engine's own statistics. Formatting CPU is the
// caller's to charge, before the call.
func (l *Log) Append(c env.Ctx, op byte, key, value []byte) (spins int, wrote bool) {
	l.mu.Lock(c)
	for l.writing {
		l.mu.Unlock(c)
		c.CPU(costs.LogSlotSpin)
		spins++
		l.mu.Lock(c)
	}
	l.payload = AppendRecord(l.payload, op, key, value)
	l.count++
	if len(l.payload) < l.group {
		l.mu.Unlock(c)
		return spins, false
	}
	l.writing = true
	l.chunk = EncodeChunk(l.chunk, l.payload, l.count)
	page := l.claim(len(l.payload))
	l.payload, l.count = l.payload[:0], 0
	l.mu.Unlock(c)
	l.io.Write(c, page, l.chunk)
	l.mu.Lock(c)
	l.writing = false
	l.mu.Unlock(c)
	return spins, true
}

// claim reserves the pages of a chunk carrying payloadLen bytes. The region
// never wraps: the log is the recovery source.
func (l *Log) claim(payloadLen int) int64 {
	page := l.next
	l.next += ChunkPages(payloadLen)
	if l.next > RegionPages {
		panic("walog: log region overflow")
	}
	return page
}

// AppendBulk appends items as put records, in chunks of about 256 KB, by
// direct untimed store writes — bulk load precedes the measured run — so a
// replay reconstructs the loaded data without trusting any other page. Call
// before any Append.
func (l *Log) AppendBulk(st device.Store, items []kv.Item) {
	count := 0
	flush := func() {
		if count == 0 {
			return
		}
		l.chunk = EncodeChunk(l.chunk, l.payload, count)
		if err := st.WritePages(l.claim(len(l.payload)), l.chunk); err != nil {
			panic(err)
		}
		l.payload, count = l.payload[:0], 0
	}
	l.payload = l.payload[:0]
	for _, it := range items {
		l.payload = AppendRecord(l.payload, OpPut, it.Key, it.Value)
		count++
		if len(l.payload) >= 256<<10 {
			flush()
		}
	}
	flush()
}

// Replay reads the log's valid prefix through the timed read path, so
// recovery cost lands on virtual time, and hands every record to fn in log
// order (key and value are only valid during the call). The log resumes
// after the prefix. It returns the number of records replayed. Call on a
// freshly opened log, before any Append.
func (l *Log) Replay(c env.Ctx, fn func(op byte, key, value []byte)) int {
	n := 0
	l.next = Scan(timedReader{l.io, c}, 0, RegionPages, func(op byte, k, v []byte) {
		fn(op, k, v)
		n++
	})
	return n
}

// ReplayItems is Replay folded into what the records leave behind: last
// writer wins per key, deletes honoured, sorted by key — ready for a bulk
// build. fn sees every record first, for the caller to charge its
// re-insertion. It also returns the number of records replayed.
func (l *Log) ReplayItems(c env.Ctx, fn func(op byte, key, value []byte)) ([]kv.Item, int) {
	m := make(map[string][]byte)
	n := l.Replay(c, func(op byte, k, v []byte) {
		fn(op, k, v)
		if op == OpDelete {
			delete(m, string(k))
			return
		}
		m[string(k)] = append([]byte(nil), v...)
	})
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	items := make([]kv.Item, 0, len(keys))
	for _, k := range keys {
		items = append(items, kv.Item{Key: []byte(k), Value: m[k]})
	}
	return items, n
}

// timedReader adapts a PageIO and the replaying thread to Scan's Reader.
type timedReader struct {
	io PageIO
	c  env.Ctx
}

func (t timedReader) ReadPages(page int64, buf []byte) error {
	t.io.Read(t.c, page, buf)
	return nil
}
