package walog_test

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"kvell/internal/device"
	"kvell/internal/engine/betree"
	"kvell/internal/engine/lsm"
	"kvell/internal/engine/wtree"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/sim"
	"kvell/internal/walog"
)

// durableEngine is what the replay test needs of a log-based engine.
type durableEngine interface {
	kv.Engine
	Put(c env.Ctx, key, value []byte)
	Get(c env.Ctx, key []byte) ([]byte, bool)
	ReplayLog(c env.Ctx) int
}

// life runs fn against a durable engine built by open on a fresh simulated
// machine whose disk is backed by st, so a second life sees what the first
// left on "disk". fn runs on a simulated thread: it reports with t.Error.
func life(t *testing.T, st device.Store, open func(env.Env, device.Disk) durableEngine, fn func(c env.Ctx, eng durableEngine)) {
	t.Helper()
	s := sim.New(1)
	e := sim.NewEnv(s, 4)
	eng := open(e, device.NewSimDisk(s, device.Optane(), st))
	e.Go("client", func(c env.Ctx) { fn(c, eng) })
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayAfterTornTail: bulk-load, then put/overwrite/delete N records
// (each acknowledged only after its chunk completed), then tear the last,
// multi-page chunk the way a power loss would. A replay by a fresh engine
// must yield exactly the acknowledged prefix — last writer wins, deletes
// honoured, nothing of the torn record — through every log-based engine.
func TestReplayAfterTornTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(env.Env, device.Disk) durableEngine
	}{
		{"wtree", func(e env.Env, d device.Disk) durableEngine {
			cfg := wtree.DefaultConfig(d)
			cfg.Durable = true
			return wtree.New(e, cfg)
		}},
		{"betree", func(e env.Env, d device.Disk) durableEngine {
			cfg := betree.DefaultConfig(d)
			cfg.Durable = true
			return betree.New(e, cfg)
		}},
		{"rocks", func(e env.Env, d device.Disk) durableEngine { return durableLSM(e, d, false) }},
		{"pebbles", func(e env.Env, d device.Disk) durableEngine { return durableLSM(e, d, true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			open := tc.open
			st := device.NewMemStore()
			model := map[int64][]byte{}
			const tornKey = 1000
			life(t, st, open, func(c env.Ctx, eng durableEngine) {
				var items []kv.Item
				for i := int64(0); i < 600; i++ { // > 256KB: two bulk chunks
					model[i] = kv.Value(i, 0, 500)
					items = append(items, kv.Item{Key: kv.Key(i), Value: model[i]})
				}
				if err := eng.BulkLoad(items); err != nil {
					t.Error(err)
					return
				}
				for i := int64(0); i < 300; i++ {
					k := i * 3 % 700 // overwrites loaded keys, adds new ones
					switch i % 5 {
					case 4:
						eng.Submit(c, &kv.Request{Op: kv.OpDelete, Key: kv.Key(k), Done: func(kv.Result) {}})
						delete(model, k)
					default:
						model[k] = kv.Value(k, uint64(i+1), 100+int(i))
						eng.Put(c, kv.Key(k), model[k])
					}
				}
				// The record whose chunk will be torn: 10KB, three pages.
				eng.Put(c, kv.Key(tornKey), kv.Value(tornKey, 1, 10_000))
			})

			// Tear it: the chunk's last page never reached the medium.
			used := walog.Scan(st, 0, 1<<20, func(byte, []byte, []byte) {})
			if err := st.WritePages(used-1, make([]byte, device.PageSize)); err != nil {
				t.Fatal(err)
			}
			if after := walog.Scan(st, 0, 1<<20, func(byte, []byte, []byte) {}); after != used-3 {
				t.Fatalf("valid prefix is %d pages after the tear, want %d (a three-page tail)", after, used-3)
			}

			life(t, st, open, func(c env.Ctx, eng durableEngine) {
				t0 := c.Now()
				if n := eng.ReplayLog(c); n != 600+300 {
					t.Errorf("replayed %d records, the acknowledged prefix holds %d", n, 600+300)
				}
				if db, ok := eng.(*lsm.DB); ok && db.Stats().Flushes == 0 {
					t.Error("replay never flushed a memtable")
				}
				if c.Now() == t0 {
					t.Error("replay took no virtual time: its reads bypassed the timed path")
				}
				for i := int64(0); i <= tornKey; i++ {
					got, ok := eng.Get(c, kv.Key(i))
					want, wok := model[i]
					if ok != wok || !bytes.Equal(got, want) {
						t.Errorf("key %d after replay: found=%v, acknowledged prefix has it=%v", i, ok, wok)
						return
					}
				}
				// The log resumes after the valid prefix, over the torn tail.
				eng.Put(c, kv.Key(tornKey), kv.Value(tornKey, 2, 50))
			})
			n := 0
			walog.Scan(st, 0, 1<<20, func(byte, []byte, []byte) { n++ })
			if want := 600 + 300 + 1; n != want {
				t.Fatalf("log holds %d records after the post-replay put, want %d", n, want)
			}
		})
	}
}

// durableLSM is a durable LSM whose memtable is small enough that replaying
// the test's log flushes it a few times (and few enough that no write stalls
// on L0 without the background threads).
func durableLSM(e env.Env, d device.Disk, fragmented bool) *lsm.DB {
	cfg := lsm.DefaultConfig(d)
	cfg.MemtableBytes = 128 << 10
	cfg.Fragmented = fragmented
	cfg.Durable = true
	return lsm.New(e, cfg)
}

// lastPage records which page Scan read last: the first page of the chunk
// whose records it is delivering.
type lastPage struct {
	st   device.Store
	page int64
}

func (r *lastPage) ReadPages(page int64, buf []byte) error {
	r.page = page
	return r.st.ReadPages(page, buf)
}

// FuzzWalogScan: over an arbitrary log region Scan never panics, never
// delivers a record from a chunk whose checksum fails, and consumes no more
// than maxPages. The corpus is built here: a valid log with single- and
// multi-page chunks, torn and truncated copies of it, and bit flips in the
// first chunk header.
func FuzzWalogScan(f *testing.F) {
	var region, payload []byte
	for _, n := range []int{1, 3, 120} { // the last chunk spans pages
		payload = payload[:0]
		for i := 0; i < n; i++ {
			op := byte(walog.OpPut)
			if i%4 == 3 {
				op = walog.OpDelete
			}
			payload = walog.AppendRecord(payload, op, kv.Key(int64(i)), kv.Value(int64(i), 1, 60))
		}
		region = append(region, walog.EncodeChunk(nil, payload, n)...)
	}
	f.Add(region)
	f.Add([]byte{})
	for _, cut := range []int{7, walog.HeaderSize, device.PageSize, 2*device.PageSize + 100, len(region) - device.PageSize} {
		f.Add(region[:cut])
	}
	torn := bytes.Clone(region)
	clear(torn[3*device.PageSize : 4*device.PageSize]) // inside the multi-page chunk
	f.Add(torn)
	for bit := 0; bit < 8*walog.HeaderSize; bit++ {
		flipped := bytes.Clone(region)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, region []byte) {
		if len(region) > 64*device.PageSize {
			region = region[:64*device.PageSize]
		}
		maxPages := int64((len(region) + device.PageSize - 1) / device.PageSize)
		padded := make([]byte, maxPages*device.PageSize)
		copy(padded, region)
		st := device.NewMemStore()
		if maxPages > 0 {
			if err := st.WritePages(0, padded); err != nil {
				t.Fatal(err)
			}
		}
		r := &lastPage{st: st}
		used := walog.Scan(r, 0, maxPages, func(op byte, k, v []byte) {
			chunk := padded[r.page*device.PageSize:]
			n := int(binary.LittleEndian.Uint32(chunk[8:12]))
			if binary.LittleEndian.Uint64(chunk[0:8]) != walog.Magic || walog.HeaderSize+n > len(chunk) {
				t.Fatalf("record delivered from page %d, which holds no chunk", r.page)
			}
			h := fnv.New64a()
			h.Write(chunk[walog.HeaderSize : walog.HeaderSize+n])
			if h.Sum64() != binary.LittleEndian.Uint64(chunk[16:24]) {
				t.Fatalf("record delivered from the chunk at page %d, whose checksum fails", r.page)
			}
		})
		if used < 0 || used > maxPages {
			t.Fatalf("Scan consumed %d pages of a %d-page region", used, maxPages)
		}
	})
}
