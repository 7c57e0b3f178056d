package stats

import "kvell/internal/env"

// Breakdown is a set of named latency histograms, one per component of a
// decomposed measurement (queue wait, CPU service, device service, ...).
// The trace subsystem records every request's per-component durations here,
// so percentile queries over any component reuse the O(1) log-linear Hist
// rather than ad-hoc sample slices. The zero value is not usable; call
// NewBreakdown.
type Breakdown struct {
	names []string
	hists []*Hist

	// Named event counters ride alongside the histograms: cheap monotonic
	// tallies (cache hits, promotions, demotions) that want a place in the
	// breakdown report and its digest but carry no duration.
	ctrNames []string
	ctrs     []int64
}

// NewBreakdown returns an empty breakdown with one histogram per name.
func NewBreakdown(names ...string) *Breakdown {
	b := &Breakdown{names: append([]string(nil), names...)}
	b.hists = make([]*Hist, len(b.names))
	for i := range b.hists {
		b.hists[i] = NewHist()
	}
	return b
}

// Len returns the number of components.
func (b *Breakdown) Len() int { return len(b.names) }

// Name returns the i-th component's name.
func (b *Breakdown) Name(i int) string { return b.names[i] }

// Hist returns the i-th component's histogram.
func (b *Breakdown) Hist(i int) *Hist { return b.hists[i] }

// Add records one sample for component i.
func (b *Breakdown) Add(i int, v env.Time) { b.hists[i].Add(v) }

// Sum returns the total time recorded for component i.
func (b *Breakdown) Sum(i int) float64 { return b.hists[i].sum }

// AddCounters registers named event counters, returning the index of the
// first. Counters are independent of the histogram components.
func (b *Breakdown) AddCounters(names ...string) int {
	first := len(b.ctrNames)
	b.ctrNames = append(b.ctrNames, names...)
	b.ctrs = append(b.ctrs, make([]int64, len(names))...)
	return first
}

// Count adds n to counter i.
func (b *Breakdown) Count(i int, n int64) { b.ctrs[i] += n }

// Counters returns the number of registered counters.
func (b *Breakdown) Counters() int { return len(b.ctrNames) }

// Digest returns an FNV-1a hash over every component's name and full
// histogram state, for determinism regression tests.
func (b *Breakdown) Digest() uint64 {
	d := fnv64(fnvOffset)
	for i, name := range b.names {
		for _, ch := range []byte(name) {
			d.word(uint64(ch))
		}
		d.word(b.hists[i].Digest())
	}
	for i, name := range b.ctrNames {
		for _, ch := range []byte(name) {
			d.word(uint64(ch))
		}
		d.word(uint64(b.ctrs[i]))
	}
	return uint64(d)
}

// FNV is an exported incremental FNV-1a hasher, for composite digests built
// outside this package (the trace subsystem hashes per-request records and
// folds in histogram digests).
type FNV uint64

// NewFNV returns the standard FNV-1a offset basis.
func NewFNV() FNV { return FNV(fnvOffset) }

// Word folds one 64-bit word into the hash, least-significant byte first.
func (f *FNV) Word(v uint64) { (*fnv64)(f).word(v) }

// Words folds each word in turn: a digest's fields, written as one list.
func (f *FNV) Words(vs ...uint64) {
	for _, v := range vs {
		f.Word(v)
	}
}
