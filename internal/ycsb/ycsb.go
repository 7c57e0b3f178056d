// Package ycsb generates the YCSB core workloads A-F (Cooper et al., SoCC
// 2010) used throughout the paper's evaluation (Table 4):
//
//	A  write-intensive: 50% updates, 50% reads
//	B  read-intensive:   5% updates, 95% reads
//	C  read-only:       100% reads
//	D  read-latest:      5% inserts, 95% reads (skewed to recent keys)
//	E  scan-intensive:   5% inserts, 95% scans (avg length 50)
//	F  50% read-modify-write, 50% reads
//
// Key-access distributions: uniform, scrambled Zipfian (theta = 0.99, the
// YCSB default) and latest. Item size is configurable; the paper uses 1KB
// records for the main experiments and 64B-4KB for Figure 10.
package ycsb

import (
	"math"
	"math/rand"

	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/slab"
	"kvell/internal/stats"
)

// Distribution selects how record numbers are drawn.
type Distribution uint8

// Distributions.
const (
	Uniform Distribution = iota
	Zipfian
	Latest
)

// String names the distribution.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipfian:
		return "zipfian"
	case Latest:
		return "latest"
	default:
		return "?"
	}
}

// Workload is an operation mix.
type Workload struct {
	Name      string
	ReadPct   int
	UpdatePct int
	InsertPct int
	ScanPct   int
	RMWPct    int
	// MaxScanLen: scan lengths are uniform in [1, MaxScanLen] (YCSB
	// default 100, giving the paper's average of ~50 items).
	MaxScanLen int
}

// Core returns YCSB core workload w ('A'..'F').
func Core(w byte) Workload {
	switch w {
	case 'A', 'a':
		return Workload{Name: "YCSB-A", ReadPct: 50, UpdatePct: 50}
	case 'B', 'b':
		return Workload{Name: "YCSB-B", ReadPct: 95, UpdatePct: 5}
	case 'C', 'c':
		return Workload{Name: "YCSB-C", ReadPct: 100}
	case 'D', 'd':
		return Workload{Name: "YCSB-D", ReadPct: 95, InsertPct: 5}
	case 'E', 'e':
		return Workload{Name: "YCSB-E", ScanPct: 95, InsertPct: 5, MaxScanLen: 100}
	case 'F', 'f':
		return Workload{Name: "YCSB-F", ReadPct: 50, RMWPct: 50}
	default:
		panic("ycsb: unknown core workload")
	}
}

// zipf is the Gray et al. bounded Zipfian generator YCSB uses, with
// incremental support for a growing record count.
type zipf struct {
	theta        float64
	n            int64
	zetan, zeta2 float64
	alpha, eta   float64
	// halfTheta caches math.Pow(0.5, theta), a constant probed on every
	// draw; hoisting it out of next() does not change any produced bits.
	halfTheta float64
}

// DefaultTheta is the YCSB-standard Zipfian skew parameter.
const DefaultTheta = 0.99

func newZipf(n int64) *zipf { return newZipfTheta(n, DefaultTheta) }

func newZipfTheta(n int64, th float64) *zipf {
	z := &zipf{theta: th, n: n}
	z.zeta2 = zetaStatic(2, th)
	z.zetan = zetaStatic(n, th)
	z.halfTheta = math.Pow(0.5, th)
	z.refresh()
	return z
}

func zetaStatic(n int64, th float64) float64 {
	var s float64
	for i := int64(1); i <= n; i++ {
		s += 1 / math.Pow(float64(i), th)
	}
	return s
}

func (z *zipf) refresh() {
	z.alpha = 1 / (1 - z.theta)
	z.eta = (1 - math.Pow(2/float64(z.n), 1-z.theta)) / (1 - z.zeta2/z.zetan)
}

// grow extends the domain to n (incremental zeta update).
func (z *zipf) grow(n int64) {
	if n <= z.n {
		return
	}
	for i := z.n + 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), z.theta)
	}
	z.n = n
	z.refresh()
}

func (z *zipf) next(r *rand.Rand) int64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.halfTheta {
		return 1
	}
	v := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// Generator produces a request stream for one workload.
type Generator struct {
	wl       Workload
	dist     Distribution
	itemSize int
	records  int64
	r        *rand.Rand
	z        *zipf
	version  uint64

	// Hot-set shift (SetHotShift): the scrambled-Zipfian head rotates to a
	// seeded pseudo-random offset every shiftEvery of virtual time. now is
	// the virtual clock of the latest FillNextAt; with shiftEvery zero the
	// draw path is untouched and streams are bit-identical to FillNext.
	shiftEvery env.Time
	shiftSeed  int64
	now        env.Time
}

// NewGenerator returns a generator over records initial records producing
// itemSize-byte records (key + value + slab header, so an itemSize of 1024
// occupies exactly one 1KB slab slot, as in the paper's experiments).
func NewGenerator(wl Workload, dist Distribution, records int64, itemSize int, seed int64) *Generator {
	return NewGeneratorTheta(wl, dist, records, itemSize, seed, DefaultTheta)
}

// NewGeneratorTheta is NewGenerator with an explicit Zipfian skew theta
// (ignored for the uniform distribution). theta = DefaultTheta reproduces
// NewGenerator bit for bit; higher values concentrate more of the stream on
// the hottest records.
func NewGeneratorTheta(wl Workload, dist Distribution, records int64, itemSize int, seed int64, theta float64) *Generator {
	g := &Generator{
		wl:       wl,
		dist:     dist,
		itemSize: itemSize,
		records:  records,
		r:        rand.New(rand.NewSource(seed)),
	}
	if dist == Zipfian || dist == Latest {
		g.z = newZipfTheta(records, theta)
	}
	return g
}

// ValueBytes returns the value length for the configured item size.
func (g *Generator) ValueBytes() int {
	v := g.itemSize - slab.HeaderSize - kv.KeyLen
	if v < 1 {
		v = 1
	}
	return v
}

// Records returns the current record count (grows with inserts).
func (g *Generator) Records() int64 { return g.records }

// InitialItems builds the bulk-load dataset (keys in sorted order).
func (g *Generator) InitialItems() []kv.Item {
	items := make([]kv.Item, g.records)
	var a kv.Arena
	n := g.ValueBytes()
	for i := int64(0); i < g.records; i++ {
		items[i] = kv.Item{Key: a.Key(i), Value: a.Value(i, 0, n)}
	}
	return items
}

// SetHotShift enables deterministic hot-set rotation for the Zipfian
// distribution: every `every` of virtual time the rank-to-record mapping
// rotates by a seeded pseudo-random offset, moving the workload's hot head
// to a different part of the key space — the churn that exercises demotion
// in a tiered store. The rotation draws nothing from the generator's RNG, so
// op mix and rank sequence are unchanged; only the record identities move.
// Pass every = 0 to disable (the default).
func (g *Generator) SetHotShift(every env.Time, seed int64) {
	g.shiftEvery = every
	g.shiftSeed = seed
}

// FillNextAt is FillNext at virtual time now, which selects the hot-set
// epoch when shifting is enabled. With shifting disabled it is FillNext
// exactly (same RNG draws, same bits).
func (g *Generator) FillNextAt(r *kv.Request, now env.Time) {
	g.now = now
	g.FillNext(r)
}

// hotShift returns the current epoch's rotation offset: a splitmix64 mix of
// the seed and the epoch number, reduced to the record domain.
func (g *Generator) hotShift() int64 {
	epoch := uint64(g.now / g.shiftEvery)
	x := uint64(g.shiftSeed)*0x9E3779B97F4A7C15 + epoch
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x % uint64(g.records))
}

// StreamDigest folds the op codes and key hashes of the next n operations
// into an FNV-1a word, advancing the virtual clock by step per op — the
// golden-digest hook for hot-set-shift schedules (the workload analogue of
// ArrivalGen.Digest). It consumes the generator.
func (g *Generator) StreamDigest(n int, step env.Time) uint64 {
	d := stats.NewFNV()
	var r kv.Request
	now := env.Time(0)
	for i := 0; i < n; i++ {
		g.FillNextAt(&r, now)
		d.Word(uint64(r.Op))
		d.Word(kv.Hash64(r.Key))
		now += step
	}
	return uint64(d)
}

// nextRecord draws a record number according to the distribution.
func (g *Generator) nextRecord() int64 {
	switch g.dist {
	case Zipfian:
		// Scrambled Zipfian: spread the hot items over the key space. The
		// key is formatted into a stack buffer only to feed the hash.
		v := g.z.next(g.r)
		if g.shiftEvery > 0 {
			v = (v + g.hotShift()) % g.records
		}
		var kb [kv.KeyLen]byte
		kv.FillKey(kb[:], v)
		return int64(kv.Hash64(kb[:]) % uint64(g.records))
	case Latest:
		v := g.z.next(g.r)
		return g.records - 1 - v
	default:
		return g.r.Int63n(g.records)
	}
}

// fillKey points r.Key at a KeyLen prefix of its existing buffer (or a new
// one) holding record i's key.
func fillKey(r *kv.Request, i int64) {
	if cap(r.Key) >= kv.KeyLen {
		r.Key = r.Key[:kv.KeyLen]
	} else {
		r.Key = make([]byte, kv.KeyLen)
	}
	kv.FillKey(r.Key, i)
}

// fillValue points r.Value at an n-byte prefix of its existing buffer (or a
// new one) holding record i's value at the given version.
func fillValue(r *kv.Request, i int64, version uint64, n int) {
	if cap(r.Value) >= n {
		r.Value = r.Value[:n]
	} else {
		r.Value = make([]byte, n)
	}
	kv.FillValue(r.Value, i, version)
}

// Next produces the next operation. The caller owns the request.
func (g *Generator) Next() *kv.Request {
	r := &kv.Request{}
	g.FillNext(r)
	return r
}

// FillNext writes the next operation into r, reusing r's key and value
// buffers when they are large enough — the allocation-free form of Next for
// callers that recycle completed requests. It draws from the RNG in exactly
// the order Next does, so a stream is bit-identical however it is produced.
// The engine must be done with r (Done invoked) before it is refilled.
func (g *Generator) FillNext(r *kv.Request) {
	p := g.r.Intn(100)
	wl := &g.wl
	r.ScanCount = 0
	switch {
	case p < wl.ReadPct:
		r.Op = kv.OpGet
		fillKey(r, g.nextRecord())
		r.Value = r.Value[:0]
	case p < wl.ReadPct+wl.UpdatePct:
		i := g.nextRecord()
		g.version++
		r.Op = kv.OpUpdate
		fillKey(r, i)
		fillValue(r, i, g.version, g.ValueBytes())
	case p < wl.ReadPct+wl.UpdatePct+wl.RMWPct:
		i := g.nextRecord()
		g.version++
		r.Op = kv.OpRMW
		fillKey(r, i)
		fillValue(r, i, g.version, g.ValueBytes())
	case p < wl.ReadPct+wl.UpdatePct+wl.RMWPct+wl.InsertPct:
		i := g.records
		g.records++
		if g.z != nil {
			g.z.grow(g.records)
		}
		r.Op = kv.OpUpdate
		fillKey(r, i)
		fillValue(r, i, 0, g.ValueBytes())
	default: // scan
		n := 1 + g.r.Intn(wl.MaxScanLen)
		r.Op = kv.OpScan
		fillKey(r, g.nextRecord())
		r.Value = r.Value[:0]
		r.ScanCount = n
	}
}
