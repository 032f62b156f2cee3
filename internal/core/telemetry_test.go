package core

import (
	"testing"

	"repro/internal/telemetry"
)

// TestSetTelemetryBindsNodeView: two harnesses handed the same bare hub
// each time their own phase spans. Interleaving the two loops' spans
// by hand (no goroutines, so the outcome does not depend on the
// scheduler) must observe both spans; a hub-wide span table keyed by
// phase alone would let b's BeginPhase overwrite a's open span and drop
// one observation.
func TestSetTelemetryBindsNodeView(t *testing.T) {
	hub := telemetry.New(telemetry.Config{})
	a, b := &Harness{}, &Harness{}
	a.SetTelemetry(hub, "a")
	b.SetTelemetry(hub, "b")
	if a.TelemetryNode != "a" || b.TelemetryNode != "b" {
		t.Fatalf("node labels %q, %q; want a, b", a.TelemetryNode, b.TelemetryNode)
	}

	a.Telemetry.BeginPhase(0, telemetry.PhaseActuate)
	b.Telemetry.BeginPhase(0, telemetry.PhaseActuate)
	a.Telemetry.EndPhase(0, telemetry.PhaseActuate)
	b.Telemetry.EndPhase(0, telemetry.PhaseActuate)

	got := hub.Registry().Histogram("capgpu_phase_duration_seconds", "", telemetry.DefPhaseBuckets,
		telemetry.L("phase", telemetry.PhaseActuate)).Count()
	if got != 2 {
		t.Fatalf("capgpu_phase_duration_seconds{phase=%q} counted %d observations, want 2", telemetry.PhaseActuate, got)
	}

	// The bound view stamps the harness's node name on what it forwards.
	a.Telemetry.Emit(telemetry.Event{Type: telemetry.EventPeriodStart, Device: -1})
	if ev := hub.Events(); len(ev) != 1 || ev[0].Node != "a" {
		t.Fatalf("events %+v, want one stamped with node a", ev)
	}
}
