package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension.
type Label struct {
	Key, Value string
}

// Labels is an ordered label set. Registration sorts it by key, so two
// sets with the same pairs in any order name the same series.
type Labels []Label

// L builds a Labels from alternating key, value strings. An odd
// argument count drops the dangling key — callers pass literals, so the
// mistake is caught by the tests that read the series back.
func L(kv ...string) Labels {
	out := make(Labels, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		out = append(out, Label{Key: kv[i], Value: kv[i+1]})
	}
	return out
}

// With returns a copy of ls extended by the given pairs.
func (ls Labels) With(kv ...string) Labels {
	out := make(Labels, 0, len(ls)+len(kv)/2)
	out = append(out, ls...)
	return append(out, L(kv...)...)
}

// signature renders the sorted, escaped `{k="v",...}` form — the series
// identity and the exposition label block ("" for no labels).
func (ls Labels) signature() string {
	if len(ls) == 0 {
		return ""
	}
	s := append(Labels(nil), ls...)
	// Stable insertion sort on the typed slice: label sets are tiny,
	// and this keeps sort.SliceStable's interface boxing and comparator
	// closure out of the per-period exposition path.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Key < s[j-1].Key; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the Prometheus text-format label escapes.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a sample value the way the exposition format
// expects (shortest round-trip decimal; deterministic).
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// series is one labeled sample stream inside a family. Counter and
// gauge state lives in bits (the float64 image of the value) so the hot
// emit path can mutate it with atomics under the registry's shared read
// lock — the lock-free fast path that keeps the hub's per-period
// emit allocation-free. Byte-stable exposition is preserved: in deterministic contexts
// every series is written by one ordered replay stream, so the atomic
// adds happen in the same order a mutex would impose.
type series struct {
	labels Labels
	bits   uint64 // counter / gauge state, atomic float64 bits

	// histogram state (nil for counters and gauges). The pointer itself
	// is atomic — installation races with scrape reads that hold only
	// the registry read lock — and the state it points at is guarded by
	// its own mutex, not the registry lock, so concurrent observations
	// of different series never serialize on one registry-wide mutex.
	hist atomic.Pointer[histState]
}

// load reads the counter/gauge value.
func (s *series) load() float64 {
	return math.Float64frombits(atomic.LoadUint64(&s.bits))
}

// store replaces the gauge value.
func (s *series) store(v float64) {
	atomic.StoreUint64(&s.bits, math.Float64bits(v))
}

// add folds delta into the value with a CAS loop (lock-free float add).
func (s *series) add(delta float64) {
	for {
		old := atomic.LoadUint64(&s.bits)
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(&s.bits, old, nv) {
			return
		}
	}
}

type histState struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds (le), +Inf implicit
	counts []uint64  // one per bound, plus [len(bounds)] for +Inf
	sum    float64
	count  uint64
}

// family is every series sharing one metric name. name, help, and kind
// are immutable after creation; the series map is guarded by the
// registry lock (writes under Lock, reads under RLock).
type family struct {
	name, help, kind string
	series           map[string]*series // signature → series
}

// Registry holds counters, gauges, and fixed-bucket histograms, and
// renders them in Prometheus text exposition format. All methods are
// safe for concurrent use. The families/series maps are guarded by an
// RWMutex so concurrent emitters share a read lock on the steady-state
// path (every series already registered) and only first-touch
// registration takes the write lock; sample values themselves are
// atomics (counters, gauges) or per-series locks (histograms).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// fetch returns the series for name+labels, creating family and series
// on first touch, and enforcing one metric kind per name. The fast path
// is a shared read lock; only a miss upgrades to the write lock.
func (r *Registry) fetch(name, help, kind string, labels Labels) *series {
	sig := labels.signature()
	r.mu.RLock()
	f := r.families[name]
	var s *series
	if f != nil {
		if f.kind != kind {
			r.mu.RUnlock()
			panic(fmt.Sprintf("telemetry: metric %s registered as %s, requested as %s", name, f.kind, kind))
		}
		s = f.series[sig]
	}
	r.mu.RUnlock()
	if s != nil {
		return s
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s registered as %s, requested as %s", name, f.kind, kind))
	}
	s, ok = f.series[sig]
	if !ok {
		s = &series{labels: append(Labels(nil), labels...)}
		f.series[sig] = s
	}
	return s
}

// The Hub drives its derived metrics through the mutators below. Lock
// order is always Hub.mu → Registry.mu (→ histState.mu); the
// Registry never calls back into the Hub.

// counterAdd bumps a counter series, registering it on first use.
func (r *Registry) counterAdd(name, help string, labels Labels, delta float64) {
	r.fetch(name, help, "counter", labels).add(delta)
}

// gaugeSet replaces a gauge series' value, registering it on first use.
func (r *Registry) gaugeSet(name, help string, labels Labels, v float64) {
	r.fetch(name, help, "gauge", labels).store(v)
}

// observe records one histogram observation, registering the series on
// first use with the given (already ascending) bucket bounds.
func (r *Registry) observe(name, help string, buckets []float64, labels Labels, v float64) {
	s := r.fetch(name, help, "histogram", labels)
	st := s.ensureHist(buckets, false)
	st.mu.Lock()
	st.observe(v)
	st.mu.Unlock()
}

// ensureHist installs the histogram state on first use. Creation is
// rare (once per series) and synchronizes through the package-level
// histInit lock so two concurrent first observations cannot both
// install state; the fast path is one atomic load.
func (s *series) ensureHist(buckets []float64, sortBounds bool) *histState {
	if st := s.hist.Load(); st != nil {
		return st
	}
	histInit.Lock()
	defer histInit.Unlock()
	if st := s.hist.Load(); st != nil {
		return st
	}
	bs := append([]float64(nil), buckets...)
	if sortBounds {
		sort.Float64s(bs)
		dedup := bs[:0]
		for i, b := range bs {
			if i == 0 || b > dedup[len(dedup)-1] {
				dedup = append(dedup, b)
			}
		}
		bs = dedup
	}
	st := &histState{bounds: bs, counts: make([]uint64, len(bs)+1)}
	s.hist.Store(st)
	return st
}

// histInit guards first-touch histogram installation across all
// registries (a once-per-series cost, never on the steady-state path).
var histInit sync.Mutex

// counterValue reads a counter/gauge series back, 0 if never touched.
func (r *Registry) counterValue(name string, labels Labels) float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.families[name]
	if !ok {
		return 0
	}
	s, ok := f.series[labels.signature()]
	if !ok {
		return 0
	}
	return s.load()
}

// observe folds one value into the bucket counts. Callers hold st.mu.
func (st *histState) observe(v float64) {
	idx := len(st.bounds) // +Inf bucket
	for i, b := range st.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	st.counts[idx]++
	st.count++
	st.sum += v
}

// Counter is a monotonically increasing sample stream.
type Counter struct {
	r *Registry
	s *series
}

// Counter returns the named counter series, registering it on first use.
func (r *Registry) Counter(name, help string, labels Labels) Counter {
	return Counter{r: r, s: r.fetch(name, help, "counter", labels)}
}

// Add increases the counter; negative deltas are ignored (counters are
// monotone by definition).
func (c Counter) Add(delta float64) {
	if delta < 0 {
		return
	}
	c.s.add(delta)
}

// Inc adds 1.
func (c Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c Counter) Value() float64 { return c.s.load() }

// Gauge is a sample stream that can go up and down.
type Gauge struct {
	r *Registry
	s *series
}

// Gauge returns the named gauge series, registering it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) Gauge {
	return Gauge{r: r, s: r.fetch(name, help, "gauge", labels)}
}

// Set replaces the gauge value.
func (g Gauge) Set(v float64) { g.s.store(v) }

// Value returns the current value.
func (g Gauge) Value() float64 { return g.s.load() }

// Histogram is a fixed-bucket cumulative histogram.
type Histogram struct {
	r *Registry
	s *series
}

// Histogram returns the named histogram series, registering it on first
// use with the given ascending bucket upper bounds (+Inf is implicit; a
// nil or unsorted slice is sorted and deduplicated).
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) Histogram {
	s := r.fetch(name, help, "histogram", labels)
	s.ensureHist(buckets, true)
	return Histogram{r: r, s: s}
}

// Observe records one value.
func (h Histogram) Observe(v float64) {
	st := h.s.hist.Load()
	st.mu.Lock()
	st.observe(v)
	st.mu.Unlock()
}

// Count returns the number of observations.
func (h Histogram) Count() uint64 {
	st := h.s.hist.Load()
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.count
}

// Sum returns the sum of observations.
func (h Histogram) Sum() float64 {
	st := h.s.hist.Load()
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sum
}

// Quantile estimates the p-th percentile (0..100) from the bucket
// counts by linear interpolation inside the containing bucket — the
// same estimate a Prometheus histogram_quantile() query produces. The
// first finite bucket interpolates from 0 (the histograms in this
// package hold non-negative quantities); a quantile landing in the +Inf
// bucket returns the highest finite bound. The estimate's error is
// bounded by the containing bucket's width; the cross-check test
// against metrics.Percentile pins that bound.
func (h Histogram) Quantile(p float64) (float64, error) {
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("telemetry: quantile %g outside [0, 100]", p)
	}
	st := h.s.hist.Load()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.count == 0 {
		return 0, fmt.Errorf("telemetry: quantile of empty histogram")
	}
	if len(st.bounds) == 0 {
		return 0, fmt.Errorf("telemetry: quantile of bucketless histogram")
	}
	rank := p / 100 * float64(st.count)
	cum := 0.0
	for i, b := range st.bounds {
		prev := cum
		cum += float64(st.counts[i])
		if cum >= rank && st.counts[i] > 0 {
			lo := 0.0
			if i > 0 {
				lo = st.bounds[i-1]
			}
			frac := (rank - prev) / float64(st.counts[i])
			if frac < 0 {
				frac = 0
			}
			return lo + (b-lo)*frac, nil
		}
	}
	return st.bounds[len(st.bounds)-1], nil
}

// WritePrometheus renders every family in Prometheus text exposition
// format, families sorted by name and series by label signature, so the
// output is deterministic for a deterministic run.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		//lint:ignore determinism keys are sorted immediately below; output order does not depend on map order
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := r.families[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			//lint:ignore determinism keys are sorted immediately below; output order does not depend on map order
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			s := f.series[sig]
			if f.kind == "histogram" {
				writeHistogram(&b, f.name, s)
				continue
			}
			fmt.Fprintf(&b, "%s%s %s\n", f.name, sig, formatValue(s.load()))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series (_bucket/_sum/_count).
// A histogram series registered but never observed (hist not yet
// installed) renders nothing — a transient state a concurrent scrape
// can catch between registration and first observation.
func writeHistogram(b *strings.Builder, name string, s *series) {
	st := s.hist.Load()
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	cum := uint64(0)
	for i, bound := range st.bounds {
		cum += st.counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, s.labels.With("le", formatValue(bound)).signature(), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, s.labels.With("le", "+Inf").signature(), st.count)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, s.labels.signature(), formatValue(st.sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.labels.signature(), st.count)
}
