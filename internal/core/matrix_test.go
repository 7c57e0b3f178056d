package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/sim"
)

// matrixFeatures are the request-path features and the ablations that
// reshape it. Every subset must behave like a map.
var matrixFeatures = []struct {
	name string
	set  func(*Config)
}{
	{"absorb", func(c *Config) { c.AbsorbInterval = 20 * env.Microsecond }},
	{"tiered", func(c *Config) { c.TieredHotBytes = 64 << 10; c.TieredPromoteAfter = 1 }},
	{"mvcc", func(c *Config) { c.MVCC = true }},
	{"noinplace", func(c *Config) { c.NoInPlaceUpdates = true }},
	{"shared", func(c *Config) { c.SharedEverything = true }},
	{"commitlog", func(c *Config) { c.WithCommitLog = true }},
}

// TestFeatureMatrix runs, for every subset of {absorb, tiered, MVCC,
// no-in-place, shared-everything, commit log}, a seeded
// get/update/delete/RMW/scan workload with size-class-hopping values against
// a map model on a page cache far smaller than the data, then stops, reopens
// on the same disk image, recovers and re-checks every key plus both audits.
func TestFeatureMatrix(t *testing.T) {
	for mask := 0; mask < 1<<len(matrixFeatures); mask++ {
		var names []string
		on := make([]bool, len(matrixFeatures))
		for i, f := range matrixFeatures {
			if mask&(1<<i) != 0 {
				names = append(names, f.name)
				on[i] = true
			}
		}
		name := "plain"
		if len(names) > 0 {
			name = strings.Join(names, "+")
		}
		configure := func(c *Config) {
			c.Workers = 2
			c.PageCachePages = 32
			for i, f := range matrixFeatures {
				if on[i] {
					f.set(c)
				}
			}
		}
		absorb, tiered, versioned, shared := on[0], on[1], on[2], on[4]
		t.Run(name, func(t *testing.T) {
			m := &matrixRun{t: t, rng: rand.New(rand.NewSource(int64(mask) + 1)), model: map[int64][]byte{}, versioned: versioned}
			st, ms := simHarness(t, configure, m.workload)
			stats := st.Stats()
			if absorb && stats.Absorbed+stats.AbsorbFlushes == 0 {
				t.Errorf("absorb front end never engaged: %+v", stats)
			}
			if tiered && stats.HotHits == 0 {
				t.Errorf("hot tier never hit: %+v", stats)
			}
			if shared && st.Shards() != 1 {
				t.Errorf("shared-everything store has %d shards, want 1", st.Shards())
			}
			if stats.FreeReused == 0 {
				t.Errorf("no freed slot was ever reused: %+v", stats)
			}
			m.audit(st)

			// Reopen on the same disk image: recovery must rebuild exactly
			// the model, whatever mix of features wrote it.
			s2 := sim.New(9)
			e2 := sim.NewEnv(s2, 8)
			cfg := DefaultConfig(device.NewSimDisk(s2, device.Optane(), ms))
			configure(&cfg)
			st2, err := Open(e2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			e2.Go("client", func(c env.Ctx) {
				if err := st2.Recover(c); err != nil {
					t.Error(err)
					return
				}
				st2.Start()
				if n := st2.ResolveIntents(c); n != 0 {
					t.Errorf("recovery found %d pending intents; the workload settled all of them", n)
				}
				m.checkAll(c, st2, "after recovery")
				st2.Stop(c)
			})
			if err := s2.Run(-1); err != nil {
				t.Fatal(err)
			}
			s2.Close()
			m.audit(st2)
		})
	}
}

const (
	matrixKeys   = 1000 // × ~500 B ≈ 60 pages per worker against 16 cached
	matrixHot    = 16   // half the operations go to these keys
	matrixRounds = 220
	matrixBurst  = 16
)

// matrixSizes hop between size classes; with the 27-byte envelope the 980 B
// value crosses into the next class, so plain and versioned rows migrate at
// different points. 5000 B is a multi-page item.
var matrixSizes = []int{40, 200, 700, 980}

type matrixRun struct {
	t         *testing.T
	rng       *rand.Rand
	model     map[int64][]byte // present keys -> current value
	version   uint64
	versioned bool
}

func (m *matrixRun) key() int64 {
	if m.rng.Intn(2) == 0 {
		return int64(m.rng.Intn(matrixHot))
	}
	return int64(m.rng.Intn(matrixKeys))
}

func (m *matrixRun) value(k int64) []byte {
	n := matrixSizes[m.rng.Intn(len(matrixSizes))]
	if m.rng.Intn(40) == 0 {
		n = 5000
	}
	m.version++
	return kv.Value(k, m.version, n)
}

// workload loads every key, then issues bursts of concurrently outstanding
// operations on distinct keys, so the model stays exact while the device is
// busy enough for the absorb buffer to engage. Distinct keys also keep out of
// the bursts a read and a write of one key in flight together, which the hot
// tier mishandles (ROADMAP, "Found by the feature matrix", 1(b)).
func (m *matrixRun) workload(c env.Ctx, st *Store) {
	t := m.t
	for base := int64(0); base < matrixKeys; base += 50 {
		var load []*kv.Request
		for k := base; k < base+50; k++ {
			m.model[k] = m.value(k)
			load = append(load, &kv.Request{Op: kv.OpUpdate, Key: kv.Key(k), Value: m.model[k]})
		}
		burst(c, st, load)
	}
	var pending int64 = -1 // key holding an uncommitted intent
	var pendingTS uint64
	var pendingVal []byte
	for round := 0; round < matrixRounds && !t.Failed(); round++ {
		var reqs []*kv.Request
		var check []func(kv.Result)
		used, written := map[int64]bool{}, []int64{}
		for len(reqs) < matrixBurst {
			k := m.key()
			if used[k] {
				continue
			}
			used[k] = true
			r := &kv.Request{Op: kv.OpGet, Key: kv.Key(k)}
			old, had := m.model[k]
			switch p := m.rng.Intn(100); {
			case p < 15:
				r.Op, r.Value = kv.OpRMW, m.value(k)
				if had {
					m.model[k] = r.Value
				}
			case p < 40:
			case p < 80:
				r.Op, r.Value = kv.OpUpdate, m.value(k)
				m.model[k] = r.Value
				had = true // updates always acknowledge Found
			default:
				r.Op = kv.OpDelete
				delete(m.model, k)
			}
			if r.Op != kv.OpGet {
				written = append(written, k)
			}
			reqs = append(reqs, r)
			check = append(check, func(res kv.Result) {
				if res.Found != had || (r.Op == kv.OpGet && had && !bytes.Equal(res.Value, old)) {
					t.Errorf("round %d: %v(%d) found=%v, model had it=%v (%d B)", round, r.Op, k, res.Found, had, len(old))
				}
			})
		}
		for i, res := range burst(c, st, reqs) {
			check[i](res)
		}
		for _, k := range written {
			m.checkKey(c, st, k, fmt.Sprintf("round %d, after the burst", round))
		}
		if round%10 == 0 {
			m.checkScan(c, st, round)
		}
		if !m.versioned {
			continue
		}
		// Versioned rows: single-key transactions create multi-version keys
		// and pending intents under the plain traffic; GC settles them again.
		switch {
		case round == matrixRounds/2:
			// Plain traffic alone must have left no multi-version state.
			if n := st.Stats().MVCCKeys; n != 0 {
				t.Errorf("MVCCKeys = %d after plain-only traffic, want 0", n)
			}
		case round < matrixRounds/2:
		case pending >= 0:
			// Commit the intent left pending over the previous burst: it wins
			// over any plain write that chained beneath it meanwhile.
			for {
				res := st.Do(c, &kv.Request{Op: kv.OpTxnCommit, Key: kv.Key(pending), TS: pendingTS, TS2: st.NextTS(c)})
				if res.Txn == kv.TxnOK {
					break
				}
				if res.Txn != kv.TxnRetry {
					t.Fatalf("round %d: commit of pending intent on %d: txn status %d", round, pending, res.Txn)
				}
			}
			m.model[pending] = pendingVal
			m.checkKey(c, st, pending, "after committing over plain writes")
			pending = -1
		case round%4 == 0:
			k := m.key()
			pending, pendingTS, pendingVal = k, st.NextTS(c), m.value(k)
			res := st.Do(c, &kv.Request{Op: kv.OpTxnPrewrite, Key: kv.Key(k), Value: pendingVal, TS: pendingTS, Aux: kv.Key(k)})
			if res.Txn != kv.TxnOK {
				t.Fatalf("round %d: prewrite(%d): txn status %d", round, k, res.Txn)
			}
			m.rmw(c, st, k, "under a pending intent")
		case round%4 == 2:
			k := m.key()
			if _, had := m.model[k]; had && m.rng.Intn(2) == 0 {
				txnDelete(t, c, st, kv.Key(k))
				delete(m.model, k)
			} else {
				v := m.value(k)
				txnPut(t, c, st, kv.Key(k), v)
				m.model[k] = v
			}
			m.rmw(c, st, k, "after a transactional write")
		case round%4 == 3:
			st.GC(c, st.SnapshotTS())
		}
	}
	if pending >= 0 {
		st.Do(c, &kv.Request{Op: kv.OpTxnRollback, Key: kv.Key(pending), TS: pendingTS})
	}
	m.checkAll(c, st, "at the end of the workload")
}

// rmw issues one plain RMW on k — the plain operation that both reads and
// writes through whatever version state the key is in — and re-reads it.
func (m *matrixRun) rmw(c env.Ctx, st *Store, k int64, when string) {
	_, had := m.model[k]
	v := m.value(k)
	if res := st.Do(c, &kv.Request{Op: kv.OpRMW, Key: kv.Key(k), Value: v}); res.Found != had {
		m.t.Errorf("%s: RMW(%d) found=%v, model had it=%v", when, k, res.Found, had)
	}
	if had {
		m.model[k] = v
	}
	m.checkKey(c, st, k, when)
}

func (m *matrixRun) checkKey(c env.Ctx, st *Store, k int64, when string) {
	got, ok := st.Get(c, kv.Key(k))
	want, had := m.model[k]
	if ok != had || (had && !bytes.Equal(got, want)) {
		m.t.Errorf("%s: Get(%d) found=%v (%d B), model has it=%v (%d B)", when, k, ok, len(got), had, len(want))
	}
}

func (m *matrixRun) checkAll(c env.Ctx, st *Store, when string) {
	for k := int64(0); k < matrixKeys && !m.t.Failed(); k++ {
		m.checkKey(c, st, k, when)
	}
	if got := st.ScanRange(c, kv.Key(0), kv.Key(matrixKeys)); len(got) != len(m.model) {
		m.t.Errorf("%s: full scan returned %d items, model holds %d", when, len(got), len(m.model))
	}
}

func (m *matrixRun) checkScan(c env.Ctx, st *Store, round int) {
	start := m.key()
	var want []int64
	for k := range m.model {
		if k >= start {
			want = append(want, k)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(want) > 10 {
		want = want[:10]
	}
	got := st.ScanN(c, kv.Key(start), 10)
	if len(got) != len(want) {
		m.t.Errorf("round %d: ScanN(%d, 10) returned %d items, want %d", round, start, len(got), len(want))
		return
	}
	for i, it := range got {
		if !bytes.Equal(it.Key, kv.Key(want[i])) || !bytes.Equal(it.Value, m.model[want[i]]) {
			m.t.Errorf("round %d: ScanN(%d, 10)[%d] = key %q, want key %d with the model's value", round, start, i, it.Key, want[i])
		}
	}
}

func (m *matrixRun) audit(st *Store) {
	if err := st.CheckConsistency(); err != nil {
		m.t.Error(err)
	}
	if err := st.CheckMVCC(); err != nil {
		m.t.Error(err)
	}
}
