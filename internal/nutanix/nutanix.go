// Package nutanix synthesizes the two production workloads of §6.4.2: a
// 57:41:2 write:read:scan mix over items of 250B-1KB (median 400B). The
// paper characterizes the two traces by their skew — Workload 1 is close to
// uniform (21% of reads served from cache with a cache of 1/3 the data) and
// Workload 2 is highly skewed (99% cache hits) — which we model with a
// uniform and a sharply Zipfian key distribution respectively.
package nutanix

import (
	"math"
	"math/rand"

	"kvell/internal/kv"
	"kvell/internal/slab"
)

// Profile selects one of the two production workloads.
type Profile uint8

// The two production workloads.
const (
	Workload1 Profile = iota + 1 // near-uniform key popularity
	Workload2                    // highly skewed (99% cache-hit reads)
)

// Mix percentages from the paper.
const (
	WritePct = 57
	ReadPct  = 41
	ScanPct  = 2
)

// Generator produces the production request stream.
type Generator struct {
	profile Profile
	records int64
	r       *rand.Rand
	version uint64
	sizes   []int // per-record item size (stable across updates)
}

// New returns a generator over records items.
func New(profile Profile, records int64, seed int64) *Generator {
	g := &Generator{profile: profile, records: records, r: rand.New(rand.NewSource(seed))}
	g.sizes = make([]int, records)
	for i := range g.sizes {
		g.sizes[i] = g.drawSize()
	}
	return g
}

// drawSize samples the item-size distribution: 250B-1KB with a median of
// 400B (log-normal-ish: most items small, a tail up to 1KB).
func (g *Generator) drawSize() int {
	// Log-uniform between 250 and 1024 gives a ~506B median; mix with a
	// bias toward the low end to hit the 400B median the paper reports.
	u := g.r.Float64()
	u = u * u // bias low
	s := 250 * math.Pow(1024.0/250.0, u)
	return int(s)
}

func (g *Generator) valueBytes(i int64) int {
	v := g.sizes[i] - slab.HeaderSize - kv.KeyLen
	if v < 1 {
		v = 1
	}
	return v
}

// nextRecord draws a key. Workload 1 is near-uniform; Workload 2
// concentrates 99% of accesses on a hot set smaller than the cache (the
// cache is a third of the dataset, so a quarter-of-the-keyspace hot set
// yields the paper's 99% cache-hit reads while staying far larger than
// any engine's in-memory write buffer — the ratio that matters for the
// LSM's compaction load at scaled-down dataset sizes).
func (g *Generator) nextRecord() int64 {
	if g.profile == Workload1 {
		return g.r.Int63n(g.records)
	}
	// Workload 2: 99% of ops hit a hot 25% of the key space.
	if g.r.Float64() < 0.99 {
		hot := g.records / 4
		if hot < 1 {
			hot = 1
		}
		// Quadratic bias inside the hot set, hashed to spread over slabs
		// (key formatted into a stack buffer only to feed the hash).
		u := g.r.Float64()
		i := int64(u * u * float64(hot))
		var kb [kv.KeyLen]byte
		kv.FillKey(kb[:], i)
		return int64(kv.Hash64(kb[:]) % uint64(g.records))
	}
	return g.r.Int63n(g.records)
}

// InitialItems builds the bulk-load dataset.
func (g *Generator) InitialItems() []kv.Item {
	items := make([]kv.Item, g.records)
	var a kv.Arena
	for i := int64(0); i < g.records; i++ {
		items[i] = kv.Item{Key: a.Key(i), Value: a.Value(i, 0, g.valueBytes(i))}
	}
	return items
}

// Next produces the next operation (57% writes, 41% reads, 2% scans).
func (g *Generator) Next() *kv.Request {
	r := &kv.Request{}
	g.FillNext(r)
	return r
}

// FillNext writes the next operation into r, reusing r's key and value
// buffers when large enough (allocation-free form of Next; identical RNG
// draw order, so the stream is bit-identical). The engine must be done with
// r (Done invoked) before it is refilled.
func (g *Generator) FillNext(r *kv.Request) {
	p := g.r.Intn(100)
	r.ScanCount = 0
	switch {
	case p < WritePct:
		i := g.nextRecord()
		g.version++
		r.Op = kv.OpUpdate
		g.fillKey(r, i)
		g.fillValue(r, i, g.version)
	case p < WritePct+ReadPct:
		r.Op = kv.OpGet
		g.fillKey(r, g.nextRecord())
		r.Value = r.Value[:0]
	default:
		r.Op = kv.OpScan
		g.fillKey(r, g.nextRecord())
		r.Value = r.Value[:0]
		r.ScanCount = 1 + g.r.Intn(100)
	}
}

func (g *Generator) fillKey(r *kv.Request, i int64) {
	if cap(r.Key) >= kv.KeyLen {
		r.Key = r.Key[:kv.KeyLen]
	} else {
		r.Key = make([]byte, kv.KeyLen)
	}
	kv.FillKey(r.Key, i)
}

func (g *Generator) fillValue(r *kv.Request, i int64, version uint64) {
	n := g.valueBytes(i)
	if cap(r.Value) >= n {
		r.Value = r.Value[:n]
	} else {
		r.Value = make([]byte, n)
	}
	kv.FillValue(r.Value, i, version)
}
