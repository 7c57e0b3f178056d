package harness

import (
	"bytes"
	"math/rand"
	"testing"

	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/sim"
)

// TestEnginesAgreeWithModel runs an identical randomized operation sequence
// through every engine and checks reads and scans against a model map —
// the cross-engine integration test that ties the whole repository
// together.
func TestEnginesAgreeWithModel(t *testing.T) {
	t.Parallel()
	const records = 400
	type op struct {
		kind kv.OpType
		key  int64
		ver  uint64
		scan int
	}
	r := rand.New(rand.NewSource(77))
	var ops []op
	var ver uint64
	for i := 0; i < 2500; i++ {
		o := op{key: int64(r.Intn(records))}
		switch r.Intn(10) {
		case 0, 1, 2, 3:
			ver++
			o.kind, o.ver = kv.OpUpdate, ver
		case 4:
			o.kind, o.scan = kv.OpScan, 1+r.Intn(20)
		default:
			o.kind = kv.OpGet
		}
		ops = append(ops, o)
	}

	// Model results.
	model := map[int64]uint64{}
	for i := int64(0); i < records; i++ {
		model[i] = 0
	}
	valueOf := func(key int64, ver uint64) []byte { return kv.Value(key, ver, 600) }

	for _, kind := range AllEngines {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			s := sim.New(5)
			e := sim.NewEnv(s, 8)
			disk := device.NewSimDisk(s, device.Optane(), nil)
			spec := Spec{Engine: kind, Records: records, ItemSize: 1024}
			spec.defaults()
			eng := buildEngine(e, &spec, []device.Disk{disk})
			var items []kv.Item
			for i := int64(0); i < records; i++ {
				items = append(items, kv.Item{Key: kv.Key(i), Value: valueOf(i, 0)})
			}
			if err := eng.BulkLoad(items); err != nil {
				t.Fatal(err)
			}
			eng.Start()
			m := map[int64]uint64{}
			for k, v := range model {
				m[k] = v
			}
			e.Go("client", func(c env.Ctx) {
				// One scan request serves every scan, so each refills the
				// ScanBuf the previous one left behind.
				scan := &kv.Request{Op: kv.OpScan}
				for i, o := range ops {
					switch o.kind {
					case kv.OpUpdate:
						doneCh := false // engines may be async; use Done
						eng.Submit(c, &kv.Request{Op: kv.OpUpdate, Key: kv.Key(o.key), Value: valueOf(o.key, o.ver),
							Done: func(kv.Result) { doneCh = true }})
						for !doneCh {
							c.Sleep(10 * env.Microsecond)
						}
						m[o.key] = o.ver
					case kv.OpGet:
						var got kv.Result
						doneCh := false
						eng.Submit(c, &kv.Request{Op: kv.OpGet, Key: kv.Key(o.key),
							Done: func(r kv.Result) { got = r; doneCh = true }})
						for !doneCh {
							c.Sleep(10 * env.Microsecond)
						}
						want, ok := m[o.key]
						if got.Found != ok {
							t.Errorf("op %d: %v Get(%d) found=%v want %v", i, kind, o.key, got.Found, ok)
							return
						}
						if ok && !bytes.Equal(got.Value, valueOf(o.key, want)) {
							t.Errorf("op %d: %v Get(%d) stale value (want ver %d)", i, kind, o.key, want)
							return
						}
					case kv.OpScan:
						var got kv.Result
						doneCh := false
						scan.Key, scan.ScanCount = kv.Key(o.key), o.scan
						scan.Done = func(r kv.Result) { got = r; doneCh = true }
						eng.Submit(c, scan)
						for !doneCh {
							c.Sleep(10 * env.Microsecond)
						}
						want := o.scan
						if o.key+int64(o.scan) > records {
							want = int(records - o.key)
						}
						if got.ScanN != want || len(scan.ScanBuf) != want {
							t.Errorf("op %d: %v Scan(%d,%d) returned %d (%d in ScanBuf), want %d",
								i, kind, o.key, o.scan, got.ScanN, len(scan.ScanBuf), want)
							return
						}
						for j, it := range scan.ScanBuf {
							k := o.key + int64(j)
							if !bytes.Equal(it.Key, kv.Key(k)) || !bytes.Equal(it.Value, valueOf(k, m[k])) {
								t.Errorf("op %d: %v Scan(%d,%d)[%d] = key %q, want key %d at ver %d",
									i, kind, o.key, o.scan, j, it.Key, k, m[k])
								return
							}
						}
					}
				}
				eng.Stop(c)
			})
			if err := s.Run(-1); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
