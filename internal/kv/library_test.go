package kv_test

import (
	"bytes"
	"testing"

	"kvell/internal/device"
	"kvell/internal/engine/betree"
	"kvell/internal/engine/lsm"
	"kvell/internal/engine/wtree"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/sim"
)

// TestSubmitLibrary drives every request type through Submit on each
// library-model engine: one callback per request, before Submit returns,
// with the result the direct-call API would give.
func TestSubmitLibrary(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(env.Env, device.Disk) kv.Engine
	}{
		{"lsm", func(e env.Env, d device.Disk) kv.Engine { return lsm.New(e, lsm.DefaultConfig(d)) }},
		{"wtree", func(e env.Env, d device.Disk) kv.Engine { return wtree.New(e, wtree.DefaultConfig(d)) }},
		{"betree", func(e env.Env, d device.Disk) kv.Engine { return betree.New(e, betree.DefaultConfig(d)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			e := sim.NewEnv(s, 8)
			eng := tc.open(e, device.NewSimDisk(s, device.Optane(), nil))
			eng.Start()
			e.Go("client", func(c env.Ctx) {
				defer eng.Stop(c)
				done := 0
				submit := func(r kv.Request, check func(kv.Result)) {
					t.Helper()
					before := done
					r.Done = func(res kv.Result) {
						done++
						if check != nil {
							check(res)
						}
					}
					eng.Submit(c, &r)
					if done != before+1 {
						t.Errorf("%v: %d callbacks by the time Submit returned, want 1", r.Op, done-before)
					}
				}
				get := func(want []byte) {
					t.Helper()
					submit(kv.Request{Op: kv.OpGet, Key: kv.Key(1), ValueBuf: make([]byte, 0, 64)}, func(r kv.Result) {
						if r.Found != (want != nil) || !bytes.Equal(r.Value, want) {
							t.Errorf("get: found=%v, %d value bytes; want found=%v, %d bytes", r.Found, len(r.Value), want != nil, len(want))
						}
					})
				}
				v1, v2 := kv.Value(1, 1, 300), kv.Value(1, 2, 300)
				get(nil)
				submit(kv.Request{Op: kv.OpUpdate, Key: kv.Key(1), Value: v1}, nil)
				get(v1) // outgrows the 64-byte scratch
				submit(kv.Request{Op: kv.OpRMW, Key: kv.Key(1), Value: v2}, nil)
				get(v2)
				submit(kv.Request{Op: kv.OpUpdate, Key: kv.Key(2), Value: v1}, nil)
				submit(kv.Request{Op: kv.OpScan, Key: kv.Key(0), ScanCount: 5}, func(r kv.Result) {
					if !r.Found || r.ScanN != 2 {
						t.Errorf("scan of two records: found=%v, ScanN=%d", r.Found, r.ScanN)
					}
				})
				submit(kv.Request{Op: kv.OpDelete, Key: kv.Key(1)}, nil)
				get(nil)
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

func TestCopyValue(t *testing.T) {
	src := []byte("value")
	if got := kv.CopyValue(src, nil); !bytes.Equal(got, src) || &got[0] == &src[0] {
		t.Fatal("no scratch: want a fresh copy")
	}
	scratch := make([]byte, 0, 16)
	got := kv.CopyValue(src, &scratch)
	if !bytes.Equal(got, src) || &got[0] != &scratch[:1][0] {
		t.Fatal("roomy scratch: want the copy backed by it")
	}
	long := bytes.Repeat([]byte("x"), 40)
	got = kv.CopyValue(long, &scratch)
	if !bytes.Equal(got, long) || cap(scratch) < 40 || &got[0] != &scratch[0] {
		t.Fatal("short scratch: want it grown and backing the copy")
	}
	var unset []byte
	if got = kv.CopyValue(src, &unset); !bytes.Equal(got, src) || &unset[0] != &got[0] {
		t.Fatal("nil scratch: want it set to the copy")
	}
}
