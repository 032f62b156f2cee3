package experiments

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/telemetry"
)

// TestLLMRigConstruction: the LLM rig is well-formed and seeded-
// deterministic — two rigs from one seed identify the same power model
// and derive the same phase law, and the law orders the phases the way
// the workload family does (prefill steep, decode flat).
func TestLLMRigConstruction(t *testing.T) {
	a, err := NewLLMRig(5, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLLMRig(5, "")
	if err != nil {
		t.Fatal(err)
	}
	ng := a.Server.NumGPUs()
	if len(a.LatencyModels) != ng || len(a.ModelNames) != ng {
		t.Fatalf("rig shape: %d latency models, %d names for %d GPUs", len(a.LatencyModels), len(a.ModelNames), ng)
	}
	if a.PhaseLaw == nil || a.PhaseLaw.PrefillExp <= a.PhaseLaw.DecodeExp {
		t.Fatalf("phase law does not separate regimes: %+v", a.PhaseLaw)
	}
	if a.PhaseLaw.IdentExp <= a.PhaseLaw.DecodeExp || a.PhaseLaw.IdentExp >= a.PhaseLaw.PrefillExp {
		t.Fatalf("identification exponent outside the phase range: %+v", a.PhaseLaw)
	}
	for i, g := range a.Model.Gains {
		if g <= 0 {
			t.Fatalf("identified gain %d = %g not positive", i, g)
		}
		if g != b.Model.Gains[i] {
			t.Fatalf("gain %d differs across same-seed rigs: %g vs %g", i, g, b.Model.Gains[i])
		}
	}
	if *a.PhaseLaw != *b.PhaseLaw {
		t.Fatalf("phase law differs across same-seed rigs: %+v vs %+v", a.PhaseLaw, b.PhaseLaw)
	}

	if _, err := NewLLMRig(5, "nosuchmodel@1:1+1"); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := RunSessionWith("capgpu", 5, 4, FixedSetpoint(900), nil,
		SessionOptions{Workload: "quantum"}); err == nil {
		t.Fatal("unknown workload family accepted")
	}
}

// TestExtensionLLMPhase is the R2 acceptance criterion: under the
// cyclic prefill↔decode regime switch, the phase-aware controller must
// beat the phase-blind one on cap violations AND TPOT SLO misses at
// equal token throughput, with generic RLS adaptation failing to close
// the violation gap.
func TestExtensionLLMPhase(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := ExtensionLLMPhase(42, 96)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.SetpointW != 900 || len(res.SLOs) == 0 {
		t.Fatalf("result shape: %+v", res)
	}
	byName := map[string]LLMPhaseRow{}
	for _, r := range res.Rows {
		byName[r.Config] = r
	}
	blind, ok1 := byName["CapGPU phase-blind"]
	adaptive, ok2 := byName["CapGPU phase-blind adaptive (RLS)"]
	aware, ok3 := byName["CapGPU phase-aware"]
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing configs: %+v", res.Rows)
	}
	if aware.CapViolations >= blind.CapViolations {
		t.Errorf("phase-aware violations %d not below phase-blind %d", aware.CapViolations, blind.CapViolations)
	}
	if aware.SLOMissRate >= blind.SLOMissRate {
		t.Errorf("phase-aware SLO miss rate %.4f not below phase-blind %.4f", aware.SLOMissRate, blind.SLOMissRate)
	}
	if aware.WorstExcessW >= blind.WorstExcessW {
		t.Errorf("phase-aware worst excess %.1f W not below phase-blind %.1f W", aware.WorstExcessW, blind.WorstExcessW)
	}
	if aware.CapViolations >= adaptive.CapViolations {
		t.Errorf("phase-aware violations %d not below RLS-adaptive %d", aware.CapViolations, adaptive.CapViolations)
	}
	// The win must not be bought with throughput: token rates within 2%.
	if blind.MeanTokPerS <= 0 || math.Abs(aware.MeanTokPerS-blind.MeanTokPerS) > 0.02*blind.MeanTokPerS {
		t.Errorf("throughput diverged: aware %.0f vs blind %.0f tok/s", aware.MeanTokPerS, blind.MeanTokPerS)
	}
}

// TestLLMSeededReplayGolden extends the seeded-replay byte-identity
// contract to the LLM workload family under the phase-aware
// controller: CSV trace, telemetry JSONL, Prometheus exposition, and
// the flight record must replay byte-identically, the phase series
// must be populated, and the flight stream must expose the phase-aware
// decisions (blended mix, guard engagements).
func TestLLMSeededReplayGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func() (csv, jsonl, prom, flightLog []byte) {
		var events, flightBuf bytes.Buffer
		hub := telemetry.New(telemetry.Config{JSONL: &events})
		rec := flight.NewRecorder(flight.Config{JSONL: &flightBuf})
		res, err := RunSessionWith("capgpu-phase", 11, 48, FixedSetpoint(900), nil,
			SessionOptions{Workload: "llm", Telemetry: hub, Flight: rec})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != 48 {
			t.Fatalf("got %d periods", len(res.Records))
		}
		if err := hub.Finish(); err != nil {
			t.Fatal(err)
		}
		var metricsOut bytes.Buffer
		if err := hub.Registry().WritePrometheus(&metricsOut); err != nil {
			t.Fatal(err)
		}
		return replayTrace(t, res.Records), events.Bytes(), metricsOut.Bytes(), flightBuf.Bytes()
	}
	csvA, jsonlA, promA, flightA := run()
	csvB, jsonlB, promB, flightB := run()
	for _, ch := range []struct {
		name string
		a, b []byte
	}{
		{"csv", csvA, csvB}, {"jsonl", jsonlA, jsonlB},
		{"prometheus", promA, promB}, {"flight", flightA, flightB},
	} {
		if len(ch.a) == 0 {
			t.Fatalf("empty %s trace", ch.name)
		}
		if !bytes.Equal(ch.a, ch.b) {
			t.Fatalf("%s replay diverged (%d vs %d bytes)", ch.name, len(ch.a), len(ch.b))
		}
	}
	if !strings.Contains(string(promA), "capgpu_phase_prefill_ratio") ||
		!strings.Contains(string(promA), "capgpu_queue_depth_requests") {
		t.Error("phase-mix / queue-depth series missing from the exposition")
	}

	recs, err := flight.ReadRecords(bytes.NewReader(flightA))
	if err != nil {
		t.Fatal(err)
	}
	sawMix, sawGuard := false, false
	for _, r := range recs {
		if len(r.PhasePrefill) == 0 {
			t.Fatalf("period %d flight record has no phase observables", r.Period)
		}
		if r.Controller != nil && r.Controller.PhaseMix > 0 {
			sawMix = true
			if r.Controller.PhaseGuarded {
				sawGuard = true
			}
		}
	}
	if !sawMix || !sawGuard {
		t.Errorf("phase-aware decisions invisible in flight: mix=%v guard=%v", sawMix, sawGuard)
	}
}

// TestLLMAdaptiveRegimeSwitchObservable: with the phase-blind RLS
// controller on the LLM workload, the regime switch itself must be
// visible in the flight stream — the workload observables flip between
// prefill- and decode-heavy windows, and the estimator reacts (updates
// absorbed, innovation nonzero after a switch, gains moved off the
// offline identification).
func TestLLMAdaptiveRegimeSwitchObservable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rig, err := NewLLMRig(23, "")
	if err != nil {
		t.Fatal(err)
	}
	ident := append([]float64(nil), rig.Model.Gains...)
	ctrl, err := core.NewCapGPU(rig.Model, rig.Server, rig.LatencyModels, core.Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	var flightBuf bytes.Buffer
	rec := flight.NewRecorder(flight.Config{JSONL: &flightBuf})
	h, err := core.NewHarness(rig.Server, ctrl, FixedSetpoint(900))
	if err != nil {
		t.Fatal(err)
	}
	h.OnPeriodStart = LLMRegimeOnPeriod
	h.SetFlight(rec)
	if _, err := h.Run(2 * llmCycleLen); err != nil {
		t.Fatal(err)
	}
	recs, err := flight.ReadRecords(bytes.NewReader(flightBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2*llmCycleLen {
		t.Fatalf("got %d flight records", len(recs))
	}

	meanMix := func(prefill bool) float64 {
		sum, n := 0.0, 0
		for _, r := range recs {
			if r.Period < 2 || (r.Period%llmCycleLen < llmPrefillLen) != prefill {
				continue
			}
			for _, m := range r.PhasePrefill {
				sum += m
				n++
			}
		}
		return sum / float64(n)
	}
	if pre, dec := meanMix(true), meanMix(false); pre < dec+0.2 {
		t.Errorf("regime switch invisible in phase observables: prefill-window mix %.3f vs decode-window %.3f", pre, dec)
	}

	last := recs[len(recs)-1]
	if last.Controller == nil || !last.Controller.Adaptive {
		t.Fatal("adaptive trace missing")
	}
	if last.Controller.RLSUpdates == 0 {
		t.Error("RLS absorbed no updates")
	}
	// Innovation right after a regime switch: the just-switched period's
	// prediction was made under the old regime's gains.
	sawInnovation := false
	for _, r := range recs {
		if r.Period >= llmCycleLen && r.Period%llmCycleLen == 1 && r.Controller != nil &&
			math.Abs(r.Controller.InnovationW) > 1 {
			sawInnovation = true
		}
	}
	if !sawInnovation {
		t.Error("no post-switch innovation above 1 W in any cycle")
	}
	moved := false
	for i, g := range last.Controller.Gains {
		if math.Abs(g-ident[i]) > 1e-6 {
			moved = true
		}
	}
	if !moved {
		t.Error("gains never moved off the offline identification")
	}
}

// llmRackArtifacts runs the seeded LLM fleet at the given worker count
// and returns the per-node CSV, events JSONL, per-node flight JSONL,
// and Prometheus exposition (the rackArtifacts contract, LLM family).
func llmRackArtifacts(t *testing.T, workers int) (csv, events, flightLog, prom []byte) {
	t.Helper()
	const seed, nodes, periods = 13, 6, 24
	var eventsBuf bytes.Buffer
	hub := telemetry.New(telemetry.Config{JSONL: &eventsBuf})
	flights := map[string]*bytes.Buffer{}
	opts := ClusterOptions{
		Telemetry: hub,
		Workers:   workers,
		Workload:  "llm",
		Flight: func(label string) *flight.Recorder {
			buf := &bytes.Buffer{}
			flights[label] = buf
			return flight.NewRecorder(flight.Config{JSONL: buf})
		},
	}
	coord, err := NewScaleCoordinator(seed, nodes, cluster.DemandProportional{}, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Run(periods); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if err := hub.Finish(); err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	for _, n := range coord.Nodes {
		fmt.Fprintf(&csvBuf, "# node %s\n", n.Name)
		csvBuf.Write(replayTrace(t, n.Records()))
	}
	labels := make([]string, 0, len(flights))
	for l := range flights {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var flightBuf bytes.Buffer
	for _, l := range labels {
		fmt.Fprintf(&flightBuf, "# %s\n", l)
		flightBuf.Write(flights[l].Bytes())
	}
	var promBuf bytes.Buffer
	if err := hub.Registry().WritePrometheus(&promBuf); err != nil {
		t.Fatal(err)
	}
	return csvBuf.Bytes(), eventsBuf.Bytes(), flightBuf.Bytes(), promBuf.Bytes()
}

// TestLLMParallelGoldenEquivalence extends the Workers=1 vs Workers=8
// byte-identity contract to the LLM fleet: parallel stepping must not
// perturb the serving pipelines' seeded streams.
func TestLLMParallelGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	refCSV, refEvents, refFlight, refProm := llmRackArtifacts(t, 1)
	if len(refFlight) == 0 || len(refEvents) == 0 {
		t.Fatal("reference run produced empty artifacts")
	}
	csv, events, flightLog, prom := llmRackArtifacts(t, 8)
	if !bytes.Equal(csv, refCSV) {
		t.Error("per-node CSV diverges from the sequential run")
	}
	if !bytes.Equal(events, refEvents) {
		t.Errorf("events JSONL diverges (%d vs %d bytes)", len(events), len(refEvents))
	}
	if !bytes.Equal(flightLog, refFlight) {
		t.Errorf("flight JSONL diverges (%d vs %d bytes)", len(flightLog), len(refFlight))
	}
	if !bytes.Equal(prom, refProm) {
		t.Error("Prometheus exposition diverges")
	}
}

// TestLLMFleetWorkloadValidation pins the fleet workload dispatch.
func TestLLMFleetWorkloadValidation(t *testing.T) {
	if _, err := NewScaleFleetWorkload(3, 2, "quantum"); err == nil {
		t.Fatal("unknown fleet workload accepted")
	}
}
