package telemetry

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// storeSample builds a period sample whose store-visible fields are
// driven by the given values.
func storeSample(node string, period int, power float64, violate, miss bool) PeriodSample {
	s := PeriodSample{
		Node: node, Controller: "capgpu", Period: period,
		TimeS:     float64(period) * 4,
		SetpointW: 900, AvgPowerW: power, TruePowerW: power + 5,
		EnergyJ: power * 4, CPUFreqGHz: 2.0,
	}
	if violate {
		s.AvgPowerW = 950 // > 900 × 1.01
	}
	if miss {
		s.SLOMiss = []bool{true}
		s.GPULatencyS = []float64{0.3}
	}
	return s
}

// TestStorePropertyDownsampleExact: every downsampled tier's
// min/max/mean/count/flags, recomputed from the full-resolution ring,
// match the tier's own aggregation exactly — including the float mean,
// because both sides fold values in the same (ascending period) order.
// Seeded testing/quick drives random emission sequences.
func TestStorePropertyDownsampleExact(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		periods := 150 + rng.Intn(400) // spans several 100× buckets
		hub := New(Config{})
		for k := 0; k < periods; k++ {
			hub.Period(storeSample("n0", k, 700+300*rng.Float64(), rng.Intn(7) == 0, rng.Intn(5) == 0))
		}
		full, err := hub.Query(QueryRequest{Node: "n0", Series: SeriesPowerW, Res: 1, From: -1, To: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Buckets) != periods {
			t.Fatalf("full resolution holds %d of %d points", len(full.Buckets), periods)
		}
		for _, res := range []int{TierFactor10, TierFactor100} {
			got, err := hub.Query(QueryRequest{Node: "n0", Series: SeriesPowerW, Res: res, From: -1, To: -1})
			if err != nil {
				t.Fatal(err)
			}
			want := recomputeTier(full.Buckets, res)
			if len(got.Buckets) != len(want) {
				t.Errorf("res %d: %d buckets, recomputed %d", res, len(got.Buckets), len(want))
				return false
			}
			for i, g := range got.Buckets {
				w := want[i]
				if g.StartPeriod != w.StartPeriod || g.Count != w.Count ||
					g.Min != w.Min || g.Max != w.Max || g.Sum != w.Sum ||
					g.Mean() != w.Mean() || g.Flags != w.Flags {
					t.Errorf("res %d bucket %d: got %+v want %+v", res, i, g, w)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(42)), MaxCount: 25}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// recomputeTier re-aggregates full-resolution buckets (Count 1 each)
// into factor-wide buckets in ascending period order.
func recomputeTier(full []Bucket, factor int) []Bucket {
	var out []Bucket
	for _, p := range full {
		start := (p.StartPeriod / factor) * factor
		if n := len(out); n > 0 && out[n-1].StartPeriod == start {
			b := &out[n-1]
			b.Count++
			if p.Min < b.Min {
				b.Min = p.Min
			}
			if p.Max > b.Max {
				b.Max = p.Max
			}
			b.Sum += p.Sum
			b.Flags |= p.Flags
			continue
		}
		out = append(out, Bucket{StartPeriod: start, Count: 1, Min: p.Min, Max: p.Max, Sum: p.Sum, Flags: p.Flags})
	}
	return out
}

// TestStoreBoundedMemory: retention stays within the configured
// capacities however many periods run, and eviction is visible as
// Truncated.
func TestStoreBoundedMemory(t *testing.T) {
	hub := New(Config{Store: StoreConfig{RingCapacity: 64}})
	const periods = 5000
	for k := 0; k < periods; k++ {
		hub.Period(storeSample("n0", k, 800, false, false))
	}
	full, err := hub.Query(QueryRequest{Node: "n0", Series: SeriesPowerW, Res: 1, From: -1, To: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Buckets) != 64 {
		t.Errorf("full-res ring holds %d points, want the 64 cap", len(full.Buckets))
	}
	if !full.Truncated {
		t.Error("full-res query over an overflowed ring not marked truncated")
	}
	if first := full.Buckets[0].StartPeriod; first != periods-64 {
		t.Errorf("oldest retained period %d, want %d", first, periods-64)
	}
	t10, err := hub.Query(QueryRequest{Node: "n0", Series: SeriesPowerW, Res: 10, From: -1, To: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(t10.Buckets) > 65 {
		t.Errorf("10× tier holds %d buckets, cap is 64 sealed + 1 open", len(t10.Buckets))
	}
}

// TestStoreQueryWindow: from/to filter by covered period range, the
// open bucket is visible, and bad requests error.
func TestStoreQueryWindow(t *testing.T) {
	hub := New(Config{})
	for k := 0; k < 35; k++ {
		hub.Period(storeSample("n0", k, 800, false, false))
	}
	got, err := hub.Query(QueryRequest{Node: "n0", Series: SeriesPowerW, Res: 10, From: 15, To: 29})
	if err != nil {
		t.Fatal(err)
	}
	// Buckets [10,19] and [20,29] overlap the window; [0,9] and the
	// open [30,34] bucket do not.
	if len(got.Buckets) != 2 || got.Buckets[0].StartPeriod != 10 || got.Buckets[1].StartPeriod != 20 {
		t.Errorf("windowed buckets = %+v, want starts 10 and 20", got.Buckets)
	}
	all, err := hub.Query(QueryRequest{Node: "n0", Series: SeriesPowerW, Res: 10, From: -1, To: -1})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(all.Buckets); n != 4 {
		t.Errorf("unbounded query returned %d buckets, want 4 (3 sealed + open)", n)
	}
	if last := all.Buckets[len(all.Buckets)-1]; last.StartPeriod != 30 || last.Count != 5 {
		t.Errorf("open bucket = %+v, want start 30 count 5", last)
	}
	if _, err := hub.Query(QueryRequest{Node: "n0", Series: SeriesPowerW, Res: 7}); err == nil {
		t.Error("unsupported resolution accepted")
	}
	if _, err := hub.Query(QueryRequest{Node: "ghost", Series: SeriesPowerW, Res: 1}); err == nil {
		t.Error("unknown node accepted")
	}
	if _, err := hub.Query(QueryRequest{Node: "n0", Series: "bogus", Res: 1}); err == nil {
		t.Error("unknown series accepted")
	}
	if _, err := New(Config{Store: StoreConfig{Disable: true}}).Query(QueryRequest{Node: "n0", Series: SeriesPowerW, Res: 1}); err == nil {
		t.Error("disabled store answered a query")
	}
}

// TestStoreCSVExport: the export covers every node and series, sorted,
// with one header row.
func TestStoreCSVExport(t *testing.T) {
	hub := New(Config{})
	for k := 0; k < 12; k++ {
		hub.Period(storeSample("nB", k, 800, false, false))
		hub.Period(storeSample("nA", k, 700, false, false))
	}
	var buf bytes.Buffer
	if err := hub.WriteStoreCSV(&buf, 10); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "node,series,start_period,count,min,max,mean,flags" {
		t.Errorf("header = %q", lines[0])
	}
	// 2 nodes × 5 series × 2 buckets (sealed [0,9] + open [10,11]).
	if want := 1 + 2*5*2; len(lines) != want {
		t.Errorf("export has %d lines, want %d", len(lines), want)
	}
	if !strings.HasPrefix(lines[1], "nA,") {
		t.Errorf("first data row %q not from the lexically-first node", lines[1])
	}
	if nodes := hub.StoreNodes(); len(nodes) != 2 || nodes[0] != "nA" || nodes[1] != "nB" {
		t.Errorf("StoreNodes = %v", nodes)
	}
}
