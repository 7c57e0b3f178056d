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

// logOp is one acknowledged mutation of TestReplayAfterTornTail.
type logOp struct {
	key   int64
	value []byte // nil for a delete
}

// closedGroups returns, for each group a log of the given group size closes
// over ops, the index one past its last record and its payload length.
func closedGroups(ops []logOp, group int) (ends, payloads []int) {
	payload := 0
	for i, op := range ops {
		payload += walog.RecordHeader + len(kv.Key(op.key)) + len(op.value)
		if payload >= group {
			ends, payloads = append(ends, i+1), append(payloads, payload)
			payload = 0
		}
	}
	return ends, payloads
}

// TestReplayAfterTornTail: bulk-load, then put/overwrite/delete N records,
// then tear the last chunk written, a multi-page one, the way a power loss
// would. A replay by a fresh engine must yield exactly the records of the
// groups whose chunk completed — last writer wins, deletes honoured,
// nothing of the torn chunk — through every log-based engine, at two group
// sizes. At 0 every record is a chunk of its own, acknowledged after it
// completed, so that is every acknowledged record. At a positive size the
// torn chunk takes its whole group, and the records acknowledged into the
// group no chunk closed are absent too: the loss window of a buffered log.
func TestReplayAfterTornTail(t *testing.T) {
	engines := []struct {
		name string
		open func(e env.Env, d device.Disk, group int64) durableEngine
	}{
		{"wtree", func(e env.Env, d device.Disk, group int64) durableEngine {
			cfg := wtree.DefaultConfig(d)
			cfg.LogSlotBytes = group
			return wtree.New(e, cfg)
		}},
		{"betree", func(e env.Env, d device.Disk, group int64) durableEngine {
			cfg := betree.DefaultConfig(d)
			cfg.WALBufferBytes = group
			return betree.New(e, cfg)
		}},
		{"rocks", func(e env.Env, d device.Disk, group int64) durableEngine { return durableLSM(e, d, false, group) }},
		{"pebbles", func(e env.Env, d device.Disk, group int64) durableEngine { return durableLSM(e, d, true, group) }},
	}
	const tornKey = 1000
	for _, group := range []int64{0, 8192} {
		var ops []logOp
		for i := int64(0); i < 300; i++ {
			k := i * 3 % 700 // overwrites loaded keys, adds new ones
			var v []byte
			if i%5 != 4 {
				v = kv.Value(k, uint64(i+1), 100+int(i))
			}
			ops = append(ops, logOp{k, v})
		}
		// The record whose chunk will be torn: 10KB, so it closes its group
		// at either size and the chunk spans three or more pages.
		ops = append(ops, logOp{tornKey, kv.Value(tornKey, 1, 10_000)})
		if group > 0 {
			// Acknowledged into a group that never fills.
			for k := int64(tornKey + 1); k <= tornKey+3; k++ {
				ops = append(ops, logOp{k, kv.Value(k, 1, 100)})
			}
		}
		ends, payloads := closedGroups(ops, int(group))
		if ends[len(ends)-1] != 301 {
			t.Fatalf("group %d: the torn record does not close the last group", group)
		}
		// What survives the tear: every group before the torn one.
		kept := ends[len(ends)-2]
		tornPages := walog.ChunkPages(payloads[len(payloads)-1])
		if group > 0 && 301-kept < 3 {
			t.Fatalf("group %d: the torn chunk holds %d records, want the torn one and two before it", group, 301-kept)
		}

		for _, tc := range engines {
			name := tc.name
			if group > 0 {
				name += "-grouped"
			}
			t.Run(name, func(t *testing.T) {
				open := func(e env.Env, d device.Disk) durableEngine { return tc.open(e, d, group) }
				st := device.NewMemStore()
				model := map[int64][]byte{}
				var items []kv.Item
				for i := int64(0); i < 600; i++ { // > 256KB: two bulk chunks
					model[i] = kv.Value(i, 0, 500)
					items = append(items, kv.Item{Key: kv.Key(i), Value: model[i]})
				}
				life(t, st, open, func(c env.Ctx, eng durableEngine) {
					if err := eng.BulkLoad(items); err != nil {
						t.Error(err)
						return
					}
					for _, op := range ops {
						if op.value == nil {
							eng.Submit(c, &kv.Request{Op: kv.OpDelete, Key: kv.Key(op.key), Done: func(kv.Result) {}})
						} else {
							eng.Put(c, kv.Key(op.key), op.value)
						}
					}
				})
				for _, op := range ops[:kept] {
					if op.value == nil {
						delete(model, op.key)
					} else {
						model[op.key] = op.value
					}
				}

				// Tear it: the chunk's last page never reached the medium.
				used := walog.Scan(st, 0, walog.RegionPages, func(byte, []byte, []byte) {})
				if err := st.WritePages(used-1, make([]byte, device.PageSize)); err != nil {
					t.Fatal(err)
				}
				if after := walog.Scan(st, 0, walog.RegionPages, func(byte, []byte, []byte) {}); after != used-tornPages {
					t.Fatalf("valid prefix is %d pages after the tear, want %d (a %d-page tail)", after, used-tornPages, tornPages)
				}

				life(t, st, open, func(c env.Ctx, eng durableEngine) {
					t0 := c.Now()
					if n := eng.ReplayLog(c); n != 600+kept {
						t.Errorf("replayed %d records, the completed groups hold %d", n, 600+kept)
					}
					if db, ok := eng.(*lsm.DB); ok && db.Stats().Flushes == 0 {
						t.Error("replay never flushed a memtable")
					}
					if c.Now() == t0 {
						t.Error("replay took no virtual time: its reads bypassed the timed path")
					}
					for i := int64(0); i <= tornKey+3; i++ {
						got, ok := eng.Get(c, kv.Key(i))
						want, wok := model[i]
						if ok != wok || !bytes.Equal(got, want) {
							t.Errorf("key %d after replay: found=%v, the completed groups have it=%v", i, ok, wok)
							return
						}
					}
					// The log resumes after the valid prefix, over the torn
					// tail; the record fills a group of its own.
					eng.Put(c, kv.Key(tornKey), kv.Value(tornKey, 2, 10_000))
				})
				n := 0
				walog.Scan(st, 0, walog.RegionPages, func(byte, []byte, []byte) { n++ })
				if want := 600 + kept + 1; n != want {
					t.Fatalf("log holds %d records after the post-replay put, want %d", n, want)
				}
			})
		}
	}
}

// durableLSM is an LSM whose memtable is small enough that replaying the
// test's log flushes it a few times (and few enough that no write stalls on
// L0 without the background threads).
func durableLSM(e env.Env, d device.Disk, fragmented bool, group int64) *lsm.DB {
	cfg := lsm.DefaultConfig(d)
	cfg.MemtableBytes = 128 << 10
	cfg.Fragmented = fragmented
	cfg.WALBufferBytes = group
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
