package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"kvell/internal/core"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/harness"
	"kvell/internal/kv"
	"kvell/internal/sim"
)

// A check proves outputs are correct, which the timed passes cannot: the
// harness owns their completion callbacks and compares no bytes. Each check
// names the workloads whose store configuration it covers; a benchmark run of
// one workload runs that workload's checks.
type check struct {
	name      string
	workloads []string
	run       func(seed int64) error
}

var checks = []check{
	{"model/plain", []string{"ycsb_a_uniform", "ycsb_e_scan"}, func(seed int64) error {
		return modelCheck(seed, func(*core.Config) {})
	}},
	{"model/absorb+hot", []string{"openloop_absorb_hot"}, func(seed int64) error {
		return modelCheck(seed, func(c *core.Config) {
			c.AbsorbInterval = 200 * env.Microsecond
			c.TieredHotBytes = 256 << 10 // a quarter of the keys: promotion and demotion both run
			c.TieredSeed = seed
		})
	}},
	{"model/mvcc", []string{"txn_bank"}, func(seed int64) error {
		return modelCheck(seed, func(c *core.Config) { c.MVCC = true })
	}},
	{"crash", []string{"ycsb_a_uniform", "openloop_absorb_hot", "cluster_rf2"}, func(seed int64) error {
		_, err := crashCheck(seed)
		return err
	}},
	{"reopen", []string{"ycsb_c_zipf"}, reopenCheck},
}

func (c *check) covers(workload string) bool {
	for _, w := range c.workloads {
		if w == workload {
			return true
		}
	}
	return false
}

const (
	modelKeys = 1_000
	modelOps  = 20_000
)

// modelValue is the value of key k at version v. Sizes hop between slab
// classes, so updates both rewrite in place and migrate.
func modelValue(k int64, v uint64) []byte {
	sizes := [...]int{40, 200, 700, 980}
	return kv.Value(k, v, sizes[(uint64(k)+v)%uint64(len(sizes))])
}

// modelCheck runs modelOps sequential operations through kv.Engine.Submit on
// a store configured by tweak, shadowing them in a map: every Get and every
// item of every Scan is compared byte for byte.
func modelCheck(seed int64, tweak func(*core.Config)) error {
	s := sim.New(seed + 1)
	e := sim.NewEnv(s, 4)
	cfg := core.DefaultConfig(device.NewSimDisk(s, device.Optane(), device.NewMemStore()))
	cfg.PageCachePages = 64 // far smaller than the data: reads reach the device
	tweak(&cfg)
	st, err := core.Open(e, cfg)
	if err != nil {
		return err
	}
	var eng kv.Engine = st

	version := make([]uint64, modelKeys) // 0 = absent
	items := make([]kv.Item, modelKeys)
	for k := range items {
		version[k] = 1
		items[k] = kv.Item{Key: kv.Key(int64(k)), Value: modelValue(int64(k), 1)}
	}
	if err := eng.BulkLoad(items); err != nil {
		return err
	}
	eng.Start()

	var failure error
	e.Go("model-client", func(c env.Ctx) {
		defer eng.Stop(c)
		rng := rand.New(rand.NewSource(seed))
		// submit issues one request and blocks the proc until Done.
		mu := e.NewMutex()
		cond := e.NewCond(mu)
		submit := func(r *kv.Request) kv.Result {
			var res kv.Result
			done := false
			r.Done = func(out kv.Result) {
				mu.Lock(nil)
				res, done = out, true
				mu.Unlock(nil)
				cond.Signal(nil)
			}
			eng.Submit(c, r)
			mu.Lock(c)
			for !done {
				cond.Wait(c)
			}
			mu.Unlock(c)
			return res
		}
		var next uint64 = 1
		for i := 0; i < modelOps && failure == nil; i++ {
			k := rng.Int63n(modelKeys)
			switch p := rng.Intn(100); {
			case p < 45:
				res := submit(&kv.Request{Op: kv.OpGet, Key: kv.Key(k)})
				switch {
				case res.Found != (version[k] != 0):
					failure = fmt.Errorf("op %d: get %d: found=%v, model says %v", i, k, res.Found, version[k] != 0)
				case res.Found && !bytes.Equal(res.Value, modelValue(k, version[k])):
					failure = fmt.Errorf("op %d: get %d: value differs from version %d", i, k, version[k])
				}
			case p < 85:
				next++
				submit(&kv.Request{Op: kv.OpUpdate, Key: kv.Key(k), Value: modelValue(k, next)})
				version[k] = next
			case p < 90:
				res := submit(&kv.Request{Op: kv.OpDelete, Key: kv.Key(k)})
				if res.Found != (version[k] != 0) {
					failure = fmt.Errorf("op %d: delete %d: found=%v, model says %v", i, k, res.Found, version[k] != 0)
				}
				version[k] = 0
			default:
				// Submit answers a scan with its length only, so the items
				// come from the store's own scan call, which Submit wraps.
				count := 1 + rng.Intn(50)
				got := st.ScanN(c, kv.Key(k), count)
				j := 0
				for want := k; want < modelKeys && j < count; want++ {
					if version[want] == 0 {
						continue
					}
					if j >= len(got) || !bytes.Equal(got[j].Key, kv.Key(want)) || !bytes.Equal(got[j].Value, modelValue(want, version[want])) {
						failure = fmt.Errorf("op %d: scan from %d: item %d is not key %d at version %d", i, k, j, want, version[want])
						break
					}
					j++
				}
				if failure == nil && j != len(got) {
					failure = fmt.Errorf("op %d: scan from %d: %d items, model says %d", i, k, len(got), j)
				}
			}
		}
	})
	if err := s.Run(-1); err != nil {
		return err
	}
	if failure == nil {
		failure = st.CheckConsistency()
	}
	if err := s.Close(); err != nil {
		return err
	}
	return failure
}

// crashCheck cuts power at three seeded device writes, one per store
// configuration, and lets harness.RunCrash verify that every acknowledged
// write survives on the bytes that had reached the device. It returns the
// mean virtual recovery time per thousand items scanned.
func crashCheck(seed int64) (recoverUSPerKItem float64, err error) {
	rng := rand.New(rand.NewSource(seed))
	specs := []harness.CrashSpec{
		{},
		{AbsorbInterval: 200 * env.Microsecond},
		{AbsorbInterval: 200 * env.Microsecond, TieredHotBytes: 512 << 10},
	}
	for _, spec := range specs {
		spec.Engine, spec.Seed = harness.KVell, seed
		spec.AtWrite = 200 + rng.Int63n(1800)
		res, err := harness.RunCrash(spec)
		if err != nil {
			return 0, fmt.Errorf("crash at write %d: %w", spec.AtWrite, err)
		}
		if res.Replayed > 0 {
			recoverUSPerKItem += float64(res.RecoverTime) / float64(res.Replayed) / float64(len(specs))
		}
	}
	return recoverUSPerKItem, nil
}

// reopenCheck is durability on the real runtime: write, overwrite and delete
// through a store on a file, close it, reopen from the file alone, read all.
func reopenCheck(seed int64) error {
	const n = 2_000
	rng := rand.New(rand.NewSource(seed))
	db, done := realDB(0)
	defer done()
	version := make([]uint64, n)
	for i := 0; i < 3*n; i++ {
		k := rng.Int63n(n)
		if version[k] != 0 && rng.Intn(10) == 0 {
			db.Delete(kv.Key(k))
			version[k] = 0
			continue
		}
		version[k] = uint64(i + 1)
		db.Put(kv.Key(k), modelValue(k, version[k]))
	}
	db.Close()
	db.reopen()
	for k := int64(0); k < n; k++ {
		v, ok := db.Get(kv.Key(k))
		switch {
		case ok != (version[k] != 0):
			return fmt.Errorf("reopen: key %d found=%v, written state says %v", k, ok, version[k] != 0)
		case ok && !bytes.Equal(v, modelValue(k, version[k])):
			return fmt.Errorf("reopen: key %d differs from version %d", k, version[k])
		}
	}
	return nil
}
