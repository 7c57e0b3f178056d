// Package harness runs the paper's experiments: it assembles a simulated
// machine (CPU cores + calibrated disks), an engine, a workload generator
// and closed-loop clients, and measures throughput, latency distributions
// and utilization timelines. One experiment definition exists for every
// table and figure in the paper's evaluation (see DESIGN.md §3).
package harness

import (
	"fmt"
	"runtime"

	"kvell/internal/core"
	"kvell/internal/device"
	"kvell/internal/engine/betree"
	"kvell/internal/engine/lsm"
	"kvell/internal/engine/wtree"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/sim"
	"kvell/internal/stats"
	"kvell/internal/trace"
)

// EngineKind selects which system to benchmark.
type EngineKind int

// Engine kinds, in the paper's comparison set.
const (
	KVell EngineKind = iota
	RocksLike
	PebblesLike
	WiredTigerLike
	TokuLike
)

// AllEngines is the paper's full comparison set.
var AllEngines = []EngineKind{KVell, RocksLike, PebblesLike, TokuLike, WiredTigerLike}

// String names the engine like the paper does.
func (k EngineKind) String() string {
	switch k {
	case KVell:
		return "KVell"
	case RocksLike:
		return "RocksDB-like"
	case PebblesLike:
		return "PebblesDB-like"
	case WiredTigerLike:
		return "WiredTiger-like"
	case TokuLike:
		return "TokuMX-like"
	default:
		return "?"
	}
}

// Generator is the workload interface both the YCSB and the Nutanix
// generators satisfy: the bulk-load image, then a stream of operations.
type Generator interface {
	Filler
	InitialItems() []kv.Item
}

// Filler is how the harness draws operations: FillNext writes the next one
// into a recycled request, so the harness pools Window requests per client
// instead of allocating one (plus key, value and Done closure) per operation.
type Filler interface {
	FillNext(*kv.Request)
}

// ClockedFiller is a Filler whose stream depends on virtual time (the YCSB
// hot-set-shift mode). The harness prefers FillNextAt when available; a
// generator with time-dependence disabled must make FillNextAt(r, now)
// bit-identical to FillNext(r), which keeps golden digests unchanged.
type ClockedFiller interface {
	Filler
	FillNextAt(*kv.Request, env.Time)
}

// fillFunc resolves, once per run, how gen's next operation is drawn at
// virtual time now.
func fillFunc(gen Generator) func(r *kv.Request, now env.Time) {
	switch g := gen.(type) {
	case ClockedFiller:
		return g.FillNextAt
	default:
		return func(r *kv.Request, _ env.Time) { g.FillNext(r) }
	}
}

// Spec describes one benchmark run.
type Spec struct {
	Name    string
	Seed    int64
	Cores   int
	Profile device.Profile
	NDisks  int
	// NullBacked uses a discard/zero page store (for datasets too large
	// to hold real bytes; I/O patterns and timing are unaffected).
	NullBacked bool

	Engine    EngineKind
	Records   int64
	ItemSize  int // bytes per record, for cache sizing
	CacheFrac float64

	Gen     func(seed int64) Generator
	Clients int
	Window  int // outstanding requests per client (KVell pipelines)

	// Arrival, when set, replaces the closed-loop clients with an
	// open-loop Poisson arrival process plus an admission valve (see
	// openloop.go). Clients then sizes the service-proc pool.
	Arrival *Arrival

	Warmup   env.Time
	Duration env.Time
	Bucket   env.Time // timeline bucket (default 1s)

	// TweakKVell lets experiments adjust KVell's config.
	TweakKVell func(*core.Config)
	// UngroupedLogs sets every baseline's commit-log group size to 0: a
	// chunk per record, acknowledged after its write (the crash harness's
	// loss window; the benchmark runs grouped logs).
	UngroupedLogs bool

	// Tracer, if set, records per-request latency attribution and
	// virtual-time spans for the run. Purely observational: the simulated
	// schedule is bit-identical with or without it.
	Tracer *trace.Tracer
}

// Result holds one run's measurements.
type Result struct {
	Spec       Spec
	EngineName string
	Ops        int64
	Throughput float64 // ops/s in the measurement window
	Lat        *stats.Hist
	Timeline   *stats.Timeline // completed ops per bucket
	DiskBW     *stats.Timeline // device bytes per bucket
	CPUUtil    *stats.Util
	DiskUtil   *stats.Util
	Disks      []*device.SimDisk
	Engine     kv.Engine
	Sim        *sim.Sim

	// OpsTotal counts every completion including warmup — the denominator
	// for whole-run ratios like device writes per operation, whose
	// numerators (disk counters) also span the whole run.
	OpsTotal int64

	// Open-loop accounting (zero for closed-loop runs). Ops then counts
	// completed admissions only — goodput, not offered load.
	Arrivals int64 // arrivals generated (admitted or not, whole run)
	Shed     int64 // arrivals rejected by the valve in the window
	Delayed  int64 // arrivals the valve held back in the window

	// Engine cache accounting, snapshotted after the run: the page/block
	// cache every engine has, plus KVell's hot-key record cache when
	// tiering is enabled (all zero otherwise).
	CacheHits     int64
	CacheMisses   int64
	HotHits       int64
	HotMisses     int64
	HotPromotions int64
	HotDemotions  int64
}

// fillEngineStats snapshots per-engine cache counters into the result.
func fillEngineStats(res *Result) {
	switch e := res.Engine.(type) {
	case *core.Store:
		st := e.Stats()
		res.CacheHits, res.CacheMisses = st.CacheHits, st.CacheMisses
		res.HotHits, res.HotMisses = st.HotHits, st.HotMisses
		res.HotPromotions, res.HotDemotions = st.HotPromotions, st.HotDemotions
	case *lsm.DB:
		st := e.Stats()
		res.CacheHits, res.CacheMisses = st.BlockCacheHits, st.BlockCacheMisses
	case *wtree.DB:
		st := e.Stats()
		res.CacheHits, res.CacheMisses = st.CacheHits, st.CacheMisses
	case *betree.DB:
		st := e.Stats()
		res.CacheHits, res.CacheMisses = st.CacheHits, st.CacheMisses
	}
}

// must panics on err: a failing simulator or engine call is a harness bug,
// never a measurement.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// def sets a zero-valued spec field to its default.
func def[T comparable](field *T, value T) {
	var zero T
	if *field == zero {
		*field = value
	}
}

func (s *Spec) defaults() {
	def(&s.Cores, 8)
	if s.Profile.Name == "" {
		s.Profile = device.Optane()
	}
	def(&s.NDisks, 1)
	def(&s.Records, 100_000)
	def(&s.ItemSize, 1024)
	def(&s.CacheFrac, 1.0/3)
	if s.Clients == 0 {
		if s.Engine == KVell {
			s.Clients = 8
		} else {
			s.Clients = 96 // enough blocking YCSB threads to find the CPU limit
		}
	}
	if s.Window == 0 {
		if s.Engine == KVell {
			s.Window = 32
		} else {
			s.Window = 1
		}
	}
	def(&s.Duration, 2*env.Second)
	def(&s.Warmup, s.Duration/4)
	def(&s.Bucket, env.Second)
}

// buildEngine constructs the engine with a cache of CacheFrac × dataset.
func buildEngine(e *sim.Env, s *Spec, disks []device.Disk) kv.Engine {
	dataset := s.Records * int64(s.ItemSize)
	cache := int64(float64(dataset) * s.CacheFrac)
	switch s.Engine {
	case KVell:
		cfg := core.DefaultConfig(disks...)
		cfg.Workers = s.Cores
		if cfg.Workers < len(disks) {
			cfg.Workers = len(disks)
		}
		cfg.PageCachePages = int(cache / device.PageSize)
		if s.TweakKVell != nil {
			s.TweakKVell(&cfg)
		}
		st, err := core.Open(e, cfg)
		must(err)
		return st
	case RocksLike, PebblesLike:
		cfg := lsm.DefaultConfig(disks...)
		cfg.BlockCacheBytes = cache
		cfg.Fragmented = s.Engine == PebblesLike
		// Two 128MB memory components per 100GB in the paper; keep the
		// same ingest-to-flush ratio at harness scale.
		cfg.MemtableBytes = dataset / 32
		if cfg.MemtableBytes < 1<<20 {
			cfg.MemtableBytes = 1 << 20
		}
		// A shallow base level engages several levels even at harness
		// scale, keeping write amplification near the paper's regime.
		cfg.BaseLevelBytes = cfg.MemtableBytes * 2
		cfg.TableTargetBytes = cfg.MemtableBytes / 2
		cfg.Tracer = s.Tracer
		if s.UngroupedLogs {
			cfg.WALBufferBytes = 0
		}
		return lsm.New(e, cfg)
	case WiredTigerLike:
		cfg := wtree.DefaultConfig(disks...)
		cfg.CacheBytes = cache
		cfg.Tracer = s.Tracer
		if s.UngroupedLogs {
			cfg.LogSlotBytes = 0
		}
		return wtree.New(e, cfg)
	case TokuLike:
		cfg := betree.DefaultConfig(disks...)
		cfg.CacheBytes = cache
		cfg.Tracer = s.Tracer
		if s.UngroupedLogs {
			cfg.WALBufferBytes = 0
		}
		return betree.New(e, cfg)
	default:
		panic("harness: unknown engine")
	}
}

// Run executes the spec and returns measurements.
func Run(spec Spec) Result {
	spec.defaults()
	s := sim.New(spec.Seed + 1)
	e := sim.NewEnv(s, spec.Cores)

	tr := spec.Tracer
	if tr != nil {
		if tr.OpNames == nil {
			for op := kv.OpGet; op <= kv.OpRMW; op++ {
				tr.OpNames = append(tr.OpNames, op.String())
			}
		}
		trace.Attach(tr, e)
	}

	res := Result{
		Spec:     spec,
		Lat:      stats.NewHist(),
		Timeline: stats.NewTimeline(spec.Bucket),
		DiskBW:   stats.NewTimeline(spec.Bucket),
		CPUUtil:  stats.NewUtil(spec.Bucket, spec.Cores),
		DiskUtil: stats.NewUtil(spec.Bucket, spec.NDisks*spec.Profile.Channels),
		Sim:      s,
	}
	e.CPUs.Station().OnBusy = func(start, end env.Time) { res.CPUUtil.AddBusy(start, end) }

	var disks []device.Disk
	for i := 0; i < spec.NDisks; i++ {
		var store device.Store = device.NewMemStore()
		if spec.NullBacked {
			store = device.NullStore{}
		}
		dd := device.NewSimDisk(s, spec.Profile, store)
		dd.BWTimeline = res.DiskBW
		dd.Util = res.DiskUtil
		dd.Tracer = tr
		dd.ID = i
		disks = append(disks, dd)
		res.Disks = append(res.Disks, dd)
	}

	eng := buildEngine(e, &spec, disks)
	res.Engine = eng
	res.EngineName = eng.Name()

	gen := spec.Gen(spec.Seed)
	must(eng.BulkLoad(gen.InitialItems()))
	eng.Start()

	end := spec.Warmup + spec.Duration
	if spec.Arrival != nil {
		runOpenLoop(e, &spec, &res, eng, gen, end)
	} else {
		runClosedLoop(e, &spec, &res, eng, gen, end)
	}
	must(s.Run(end + 2*env.Second))
	must(s.Close())
	res.Throughput = float64(res.Ops) / (float64(spec.Duration) / float64(env.Second))
	fillEngineStats(&res)
	return res
}

// complete books a request that finished now: it closes the request's trace
// and counts the operation, towards Ops, the latency histogram and the
// timeline only inside the measurement window [Warmup, Warmup+Duration).
func (res *Result) complete(r *kv.Request) {
	t := res.Sim.Now()
	if r.Trace != nil {
		res.Spec.Tracer.Finish(r.Trace, t)
		r.Trace = nil
	}
	res.OpsTotal++
	if t >= res.Spec.Warmup && t < res.Spec.Warmup+res.Spec.Duration {
		res.Ops++
		res.Lat.Add(t - r.Start)
		res.Timeline.Add(t, 1)
	}
}

// submit hands r to to on proc c, under a trace context opened at r.Start
// when tr is set. Library engines run the whole op inside Submit on this
// proc; async engines (KVell) carry r.Trace across the worker handoff, a
// cluster.Client across the network, and only the routing CPU lands here.
func submit(c env.Ctx, to submitter, tr *trace.Tracer, r *kv.Request) {
	if tr == nil {
		to.Submit(c, r)
		return
	}
	r.Trace = tr.Begin(int(r.Op), r.Start)
	c.SetTrace(r.Trace)
	to.Submit(c, r)
	c.SetTrace(nil)
}

// runClosedLoop starts spec.Clients client procs, each keeping spec.Window
// requests outstanding until end; the last one out stops the engine.
func runClosedLoop(e *sim.Env, spec *Spec, res *Result, eng kv.Engine, gen Generator, end env.Time) {
	active := spec.Clients
	fill := fillFunc(gen)
	for ci := 0; ci < spec.Clients; ci++ {
		e.Go(fmt.Sprintf("client-%d", ci), func(c env.Ctx) {
			// Each client owns Window pooled requests whose Done callbacks are
			// wired once; a completed request is refilled in place, so the
			// steady-state issue path allocates nothing.
			win := newWindow(e, spec.Window, func(l lease[*kv.Request]) *kv.Request {
				r := &kv.Request{}
				r.Done = func(kv.Result) {
					res.complete(r)
					l.release()
				}
				return r
			})
			for c.Now() < end {
				r := win.acquire(c)
				fill(r, c.Now())
				r.Start = c.Now()
				submit(c, eng, spec.Tracer, r)
			}
			win.drain(c)
			active--
			if active == 0 {
				eng.Stop(c)
			}
		})
	}
}

// RunAll executes independent specs and returns their results in spec order.
// With parallel > 1 the specs run concurrently on the Go runtime's OS
// threads (parallel <= 0 means GOMAXPROCS). Each Sim is single-threaded and
// owns every piece of state it touches — clock, rng, engine, disks, stats —
// so per-spec determinism is untouched: concurrency can only change
// wall-clock time, never a measurement. Cross-spec ordering only affects
// when results become available, and the returned slice is in spec order.
func RunAll(specs []Spec, parallel int) []Result {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(specs) {
		parallel = len(specs)
	}
	results := make([]Result, len(specs))
	if parallel <= 1 {
		for i := range specs {
			results[i] = Run(specs[i])
		}
		return results
	}
	// Plain channels rather than sync.WaitGroup: the determinism lint bans
	// raw sync primitives in sim-driven packages wholesale, and the two
	// suppressions below are the only sanctioned concurrency in the harness.
	idx := make(chan int)
	done := make(chan struct{})
	for w := 0; w < parallel; w++ {
		//kvell:lint-ignore nogoroutine RunAll fans independent whole-simulation runs out across OS threads; each Sim is fully self-contained, so no simulated state is shared
		go func() {
			for i := range idx {
				results[i] = Run(specs[i])
			}
			done <- struct{}{}
		}()
	}
	for i := range specs {
		idx <- i
	}
	close(idx)
	for w := 0; w < parallel; w++ {
		<-done
	}
	return results
}
