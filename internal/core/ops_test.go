package core

import (
	"bytes"
	"sync"
	"testing"

	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/kv"
)

// A blocking call takes its waiter from the store and gives it back: a warm
// Get through Do allocates (almost) nothing, its own Done still runs, and the
// free list stays consistent when many real goroutines share the store.
func TestDoReusesWaiters(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		simHarness(t, nil, func(c env.Ctx, st *Store) {
			st.Put(c, kv.Key(1), kv.Value(1, 1, 500))
			calls := 0
			r := &kv.Request{Op: kv.OpGet, Key: kv.Key(1), ValueBuf: make([]byte, 0, 1024)}
			r.Done = func(kv.Result) { calls++ }
			get := func() {
				if res := st.Do(c, r); !res.Found || !bytes.Equal(res.Value, kv.Value(1, 1, 500)) {
					t.Fatalf("Get through Do: found=%v, %d bytes", res.Found, len(res.Value))
				}
			}
			get() // warm: page cached, one waiter on the free list
			if n := testing.AllocsPerRun(200, get); n > 1 {
				t.Errorf("a warm Store.Do Get allocates %v per call, want <= 1", n)
			}
			if calls != 202 {
				t.Errorf("the request's own Done ran %d times in 202 calls", calls)
			}
			if len(st.waiters) != 1 {
				t.Errorf("%d waiters on the free list after sequential calls, want 1", len(st.waiters))
			}
		})
	})

	t.Run("real", func(t *testing.T) {
		e := env.NewReal()
		disk := device.NewRealDisk(device.NewMemStore(), 4, false)
		cfg := DefaultConfig(disk)
		cfg.Workers = 3
		st, err := Open(e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st.Start()
		const clients, ops = 8, 200
		var wg sync.WaitGroup
		for g := 0; g < clients; g++ {
			wg.Add(1)
			e.Go("client", func(c env.Ctx) {
				defer wg.Done()
				for i := int64(0); i < ops; i++ {
					k := int64(g)*ops + i
					st.Put(c, kv.Key(k), kv.Value(k, 1, 300))
					if v, ok := st.Get(c, kv.Key(k)); !ok || !bytes.Equal(v, kv.Value(k, 1, 300)) {
						t.Errorf("client %d: Get(%d) found=%v, %d bytes", g, k, ok, len(v))
						return
					}
				}
			})
		}
		wg.Wait()
		if n := len(st.waiters); n < 1 || n > clients {
			t.Errorf("%d waiters on the free list after %d concurrent clients", n, clients)
		}
		e.Go("stop", func(c env.Ctx) { st.Stop(c) })
		e.Wait()
		disk.Close()
	})
}
