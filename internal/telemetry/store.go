package telemetry

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// The embedded multi-resolution time-series store. Every PeriodSample
// folds a small set of per-node series (power, set point, energy, CPU
// frequency) into a fixed-size full-resolution ring plus deterministic
// downsampled tiers (10× and 100× period aggregation carrying
// min/max/mean/count and violation flags). Memory is bounded by the
// ring and tier capacities regardless of run length, so a day-long soak
// can be analyzed from the store instead of an O(periods) JSONL stream.
//
// All store state lives in the node's hub state and is guarded by
// Hub.mu — the store adds no locks of its own.

// Store field names — the series retained per node.
const (
	SeriesSetpointW  = "setpoint_w"
	SeriesPowerW     = "power_w"      // meter-side period average
	SeriesPowerTrueW = "power_true_w" // breaker-side period average
	SeriesEnergyJ    = "energy_j"
	SeriesCPUGHz     = "cpu_ghz"
)

// storeFields is the fixed retention set, in export order.
var storeFields = []string{
	SeriesCPUGHz, SeriesEnergyJ, SeriesPowerTrueW, SeriesPowerW, SeriesSetpointW,
}

// Flag bits carried by points and OR-folded into downsampled buckets,
// so a 100×-resolution scan still shows whether any covered period
// violated the cap or missed an SLO.
const (
	FlagCapViolation uint8 = 1 << iota
	FlagSLOMiss
	FlagDegraded
	FlagFailSafe
)

// Downsample factors of the two aggregated tiers (full resolution is
// tier 1×).
const (
	TierFactor10  = 10
	TierFactor100 = 100
)

// StoreConfig tunes the time-series store. The zero value enables the
// store with default capacities.
type StoreConfig struct {
	// Disable drops per-period series retention entirely (events and
	// metrics are unaffected).
	Disable bool
	// RingCapacity is the number of full-resolution points kept per
	// series (default 4096). The 10× tier keeps the same number of
	// buckets; the 100× tier keeps a quarter — enough that both
	// downsampled tiers cover a full simulated day with room to spare.
	RingCapacity int
}

// storeSettings is the resolved form held by the Hub.
type storeSettings struct {
	disabled bool
	ringCap  int
	tier10   int
	tier100  int
}

func (c StoreConfig) resolve() storeSettings {
	ringCap := c.RingCapacity
	if ringCap <= 0 {
		ringCap = 4096
	}
	tier100 := ringCap / 4
	if tier100 < 64 {
		tier100 = 64
	}
	return storeSettings{disabled: c.Disable, ringCap: ringCap, tier10: ringCap, tier100: tier100}
}

// Point is one full-resolution sample.
type Point struct {
	Period int
	Value  float64
	Flags  uint8
}

// Bucket is one downsampled aggregate covering Factor consecutive
// periods starting at StartPeriod (the last bucket of a query may be
// partial — Count tells how many periods it folded).
type Bucket struct {
	StartPeriod int
	Count       int
	Min, Max    float64
	Sum         float64
	Flags       uint8
}

// Mean returns the bucket's mean value.
func (b Bucket) Mean() float64 { return b.Sum / float64(b.Count) }

// pointRing is a bounded circular buffer of full-resolution points.
type pointRing struct {
	pts  []Point
	head int
	cap  int
}

func (r *pointRing) push(p Point) {
	if len(r.pts) >= r.cap {
		r.pts[r.head] = p
		r.head = (r.head + 1) % len(r.pts)
		return
	}
	r.pts = append(r.pts, p)
}

// snapshot returns the ring oldest-first.
func (r *pointRing) snapshot() []Point {
	out := make([]Point, 0, len(r.pts))
	out = append(out, r.pts[r.head:]...)
	return append(out, r.pts[:r.head]...)
}

// tierRing aggregates points into factor-wide buckets and keeps the
// most recent sealed buckets in a bounded ring; the open (unsealed)
// bucket is materialized into query results so the freshest data is
// never invisible.
type tierRing struct {
	factor  int
	buckets []Bucket
	head    int
	cap     int
	cur     Bucket
	curOpen bool
}

func (t *tierRing) push(p Point) {
	start := (p.Period / t.factor) * t.factor
	if t.curOpen && t.cur.StartPeriod == start {
		t.cur.Count++
		if p.Value < t.cur.Min {
			t.cur.Min = p.Value
		}
		if p.Value > t.cur.Max {
			t.cur.Max = p.Value
		}
		t.cur.Sum += p.Value
		t.cur.Flags |= p.Flags
		return
	}
	if t.curOpen {
		t.seal()
	}
	t.cur = Bucket{StartPeriod: start, Count: 1, Min: p.Value, Max: p.Value, Sum: p.Value, Flags: p.Flags}
	t.curOpen = true
}

func (t *tierRing) seal() {
	if len(t.buckets) >= t.cap {
		t.buckets[t.head] = t.cur
		t.head = (t.head + 1) % len(t.buckets)
	} else {
		t.buckets = append(t.buckets, t.cur)
	}
	t.curOpen = false
}

// snapshot returns sealed buckets oldest-first plus the open bucket.
func (t *tierRing) snapshot() []Bucket {
	n := len(t.buckets)
	if t.curOpen {
		n++
	}
	out := make([]Bucket, 0, n)
	out = append(out, t.buckets[t.head:]...)
	out = append(out, t.buckets[:t.head]...)
	if t.curOpen {
		out = append(out, t.cur)
	}
	return out
}

// seriesStore is one node-field's multi-resolution retention.
type seriesStore struct {
	full   pointRing
	tier10 tierRing
	t100   tierRing
}

func newSeriesStore(cfg storeSettings) *seriesStore {
	return &seriesStore{
		full:   pointRing{pts: make([]Point, 0, cfg.ringCap), cap: cfg.ringCap},
		tier10: tierRing{factor: TierFactor10, buckets: make([]Bucket, 0, cfg.tier10), cap: cfg.tier10},
		t100:   tierRing{factor: TierFactor100, buckets: make([]Bucket, 0, cfg.tier100), cap: cfg.tier100},
	}
}

func (ss *seriesStore) push(p Point) {
	ss.full.push(p)
	ss.tier10.push(p)
	ss.t100.push(p)
}

// record folds one period sample into the node's series. Callers hold
// Hub.mu.
func (cfg storeSettings) record(st *nodeState, s PeriodSample, slackFrac float64) {
	if cfg.disabled {
		return
	}
	if st.series == nil {
		st.series = make(map[string]*seriesStore, len(storeFields))
		for _, f := range storeFields {
			st.series[f] = newSeriesStore(cfg)
		}
	}
	var flags uint8
	if s.SetpointW > 0 && s.AvgPowerW > s.SetpointW*(1+slackFrac) {
		flags |= FlagCapViolation
	}
	for _, miss := range s.SLOMiss {
		if miss {
			flags |= FlagSLOMiss
			break
		}
	}
	if s.Degraded {
		flags |= FlagDegraded
	}
	if s.FailSafe {
		flags |= FlagFailSafe
	}
	st.series[SeriesSetpointW].push(Point{Period: s.Period, Value: s.SetpointW, Flags: flags})
	st.series[SeriesPowerW].push(Point{Period: s.Period, Value: s.AvgPowerW, Flags: flags})
	st.series[SeriesPowerTrueW].push(Point{Period: s.Period, Value: s.TruePowerW, Flags: flags})
	st.series[SeriesEnergyJ].push(Point{Period: s.Period, Value: s.EnergyJ, Flags: flags})
	st.series[SeriesCPUGHz].push(Point{Period: s.Period, Value: s.CPUFreqGHz, Flags: flags})
}

// QueryRequest selects a series window from the store.
type QueryRequest struct {
	Node   string
	Series string // one of the Series* field names
	Res    int    // 1 (full), 10, or 100 periods per bucket
	From   int    // first period (inclusive); <0 = unbounded
	To     int    // last period (inclusive); <0 = unbounded
}

// QueryResult is the answer: buckets in ascending period order. At
// Res 1 each bucket covers one period (Count 1, Min = Max = Mean).
// Truncated reports whether the store's bounded retention has dropped
// periods older than the returned window at this resolution.
type QueryResult struct {
	Node      string   `json:"node"`
	Series    string   `json:"series"`
	Res       int      `json:"res"`
	Truncated bool     `json:"truncated"`
	Buckets   []Bucket `json:"buckets"`
}

// StoreNodes returns every node with retained series, sorted.
func (h *Hub) StoreNodes() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var names []string
	for name, st := range h.nodes {
		if st.series != nil {
			//lint:ignore determinism names are sorted below; output order does not depend on map order
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// StoreFields returns the retained series names, sorted.
func StoreFields() []string { return append([]string(nil), storeFields...) }

// Query answers a QueryRequest from the store.
func (h *Hub) Query(q QueryRequest) (QueryResult, error) {
	res := QueryResult{Node: q.Node, Series: q.Series, Res: q.Res}
	if h.store.disabled {
		return res, fmt.Errorf("telemetry: time-series store disabled")
	}
	if q.Res != 1 && q.Res != TierFactor10 && q.Res != TierFactor100 {
		return res, fmt.Errorf("telemetry: unsupported resolution %d (want 1, %d, or %d)", q.Res, TierFactor10, TierFactor100)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.nodes[q.Node]
	if !ok || st.series == nil {
		return res, fmt.Errorf("telemetry: no series for node %q", q.Node)
	}
	ss, ok := st.series[q.Series]
	if !ok {
		return res, fmt.Errorf("telemetry: unknown series %q", q.Series)
	}
	var all []Bucket
	var total int // entries retained before windowing, to report truncation
	switch q.Res {
	case 1:
		pts := ss.full.snapshot()
		total = ss.full.capDropped(pts)
		all = make([]Bucket, 0, len(pts))
		for _, p := range pts {
			all = append(all, Bucket{StartPeriod: p.Period, Count: 1, Min: p.Value, Max: p.Value, Sum: p.Value, Flags: p.Flags})
		}
	case TierFactor10:
		all = ss.tier10.snapshot()
		total = ss.tier10.dropped()
	default:
		all = ss.t100.snapshot()
		total = ss.t100.dropped()
	}
	res.Truncated = total > 0
	res.Buckets = windowBuckets(all, q.From, q.To)
	return res, nil
}

// capDropped reports whether the full-resolution ring has evicted
// points (the retained window no longer starts at the series origin).
func (r *pointRing) capDropped(snap []Point) int {
	if len(snap) >= r.cap {
		return 1
	}
	return 0
}

// dropped reports whether the tier ring has evicted sealed buckets.
func (t *tierRing) dropped() int {
	if len(t.buckets) >= t.cap {
		return 1
	}
	return 0
}

// windowBuckets filters buckets to [from, to] by covered period range.
func windowBuckets(all []Bucket, from, to int) []Bucket {
	out := all[:0:0]
	for _, b := range all {
		last := b.StartPeriod + b.Count - 1
		if from >= 0 && last < from {
			continue
		}
		if to >= 0 && b.StartPeriod > to {
			continue
		}
		out = append(out, b)
	}
	return out
}

// WriteStoreCSV exports every node's series at the given resolution as
// CSV (node, series, start_period, count, min, max, mean, flags), nodes
// and series sorted — the bounded-size soak artifact that replaces
// O(periods) JSONL for offline analysis.
func (h *Hub) WriteStoreCSV(w io.Writer, res int) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"node", "series", "start_period", "count", "min", "max", "mean", "flags"}); err != nil {
		return err
	}
	for _, node := range h.StoreNodes() {
		for _, field := range storeFields {
			q, err := h.Query(QueryRequest{Node: node, Series: field, Res: res, From: -1, To: -1})
			if err != nil {
				return err
			}
			for _, b := range q.Buckets {
				rec := []string{
					node, field,
					strconv.Itoa(b.StartPeriod),
					strconv.Itoa(b.Count),
					formatValue(b.Min),
					formatValue(b.Max),
					formatValue(b.Mean()),
					strconv.Itoa(int(b.Flags)),
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
