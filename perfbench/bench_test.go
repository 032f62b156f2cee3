package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {40, 75}, {39, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	for _, q := range tailPercentiles {
		n := samplesFor(q)
		if tailPercentile(n) < q || tailPercentile(n-1) >= q {
			t.Errorf("samplesFor(%g) = %d is not the smallest count whose tail holds %d samples", q, n, minTail)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 50: 3, 100: 5, 25: 2, 90: 4.6} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(%g) = %g, want %g", q, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples should read 0")
	}
}

func TestCountingWriter(t *testing.T) {
	w := &countingWriter{}
	for _, s := range []string{"a\n", "bc", "d\n\ne"} {
		if n, err := io.WriteString(w, s); n != len(s) || err != nil {
			t.Fatalf("Write(%q) = %d, %v", s, n, err)
		}
	}
	if string(w.buf) != "a\nbcd\n\ne" || w.bytes() != 8 || w.lines != 3 {
		t.Errorf("kept %q (%d bytes, %d lines), want 8 bytes in 3 lines", w.buf, w.bytes(), w.lines)
	}
}

func TestLedgerCountsMissingRecords(t *testing.T) {
	l := newLedger()
	l.stepped["a"] = 3
	l.stepped["b"] = 2
	recs := map[string][]core.PeriodRecord{"a": make([]core.PeriodRecord, 3), "b": make([]core.PeriodRecord, 1), "c": make([]core.PeriodRecord, 4)}
	got := l.checkRecords(recs)
	n := 0
	for _, f := range got {
		n += f.nodePeriods
	}
	if len(got) != 2 || n != 6 {
		t.Errorf("failures %+v, want two (node b: 2, node c: 4)", got)
	}
}

// small returns a minimal-size variant of the named workload.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if w.daemon {
		w.periods = 60 // the shortest soak schedule
	} else {
		w.nodes, w.periods = 6, 8
	}
	return w
}

// TestTracedMatchesUntraced: the traced run's decorators forward every
// call, so its records and stream bytes equal the untraced run's.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, name := range []string{"fleet-cnn-1k", "daemon-soak"} {
		w := small(t, name)
		plain, err := runEpisode(w, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runEpisode(w, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		if plain.digest != traced.digest || plain.art != traced.art {
			t.Errorf("%s: traced run differs: digest %x vs %x, streams %+v vs %+v",
				name, plain.digest, traced.digest, plain.art, traced.art)
		}
		if len(plain.failures)+len(traced.failures) > 0 {
			t.Errorf("%s: failures %v / %v", name, plain.failures, traced.failures)
		}
		p := traced.probe
		if len(p.sinks) < w.nodes || len(p.allocate) == 0 {
			t.Fatalf("%s: probe saw %d nodes and %d allocations", name, len(p.sinks), len(p.allocate))
		}
		// Fleet nodes all run every period; daemon churn kills and
		// drains members, so only n000 is controlled throughout.
		steady := p.sinks[:w.nodes]
		if w.daemon {
			steady = steady[:1]
		}
		for i, s := range steady {
			if len(s.harness) != w.periods-1 || len(s.phases[phDecide]) != w.periods-1 {
				t.Errorf("%s node %d: %d harness spans and %d decide spans for %d periods",
					name, i, len(s.harness), len(s.phases[phDecide]), w.periods-1)
			}
		}
		if w.daemon && (p.provUS == 0 || len(p.sinks[0].period) == 0) {
			t.Errorf("%s: provenance or telemetry layer not timed", name)
		}
	}
}

// TestRefusedSeedIsReplaced: a workload seed the constructors refuse
// attempts no node-period; the run takes the next derived seed for that
// slot and reports the refusal.
func TestRefusedSeedIsReplaced(t *testing.T) {
	w := small(t, "fleet-cnn-1k")
	bad := episodeSeed(7, 3)
	build := w.build
	w.build = func(seed int64, w workload) (rig, error) {
		if seed == bad {
			return nil, errors.New("refused")
		}
		return build(seed, w)
	}
	rep, err := run(w, 7, 0, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.refused != 1 || rep.failed != 0 || !strings.Contains(strings.Join(rep.notes, "\n"), "1 workload seeds refused") {
		t.Errorf("refused=%d failed=%d notes=%q", rep.refused, rep.failed, rep.notes)
	}
}

type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSmoke runs each workload at minimal size, untraced and traced,
// and checks the result against the metric catalogue of BENCHMARK.json.
func TestSmoke(t *testing.T) {
	f := loadBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
	for _, name := range have {
		w := small(t, name)
		for _, traced := range []bool{false, true} {
			rep, err := run(w, 5, 0, traced, 2*(w.periods-1))
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d node-periods failed", name, traced, rep.failed, rep.attempted)
			}
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			var wantNames, gotNames []string
			units := map[string]string{}
			for _, m := range want {
				wantNames = append(wantNames, m.Name)
				units[m.Name] = m.Unit
			}
			for _, m := range rep.metrics {
				gotNames = append(gotNames, m.name)
				if units[m.name] != m.unit {
					t.Errorf("%s: %s in %q, BENCHMARK.json says %q", name, m.name, m.unit, units[m.name])
				}
			}
			sort.Strings(wantNames)
			sort.Strings(gotNames)
			if !reflect.DeepEqual(wantNames, gotNames) {
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json lists %v", name, traced, gotNames, wantNames)
			}
		}
	}
}
