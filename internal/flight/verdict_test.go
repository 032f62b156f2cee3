package flight

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// burstViolationRun is a healthy run with one model-mismatch violation
// at period 30: unexplained unless a load-burst event covers it.
func burstViolationRun() []DecisionRecord {
	recs := healthyRun(40)
	recs[30].MeasuredW, recs[30].TruePowerW = 990, 990
	recs[30].OneStepErrW, recs[30].TrueOneStepErrW = 90, 90
	return recs
}

func burstAt(node string) telemetry.Event {
	return telemetry.Event{Type: telemetry.EventLoadBurst, Node: node, Period: 29, Value: 3}
}

func TestDiagnoseNodesSlicesEventsPerNode(t *testing.T) {
	flights := map[string][]DecisionRecord{
		"n1": burstViolationRun(), "n0": burstViolationRun(), "n2": nil,
	}
	// A burst labelled n1 explains n1's incident and not n0's.
	v, err := DiagnoseNodes(NodesInput{Flights: flights, Events: []telemetry.Event{burstAt("n1")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Nodes) != 2 || v.Nodes[0].Node != "n0" || v.Nodes[1].Node != "n1" {
		t.Fatalf("nodes = %+v, want n0, n1 (empty n2 skipped, names sorted)", v.Nodes)
	}
	if got := v.Nodes[0].Report.Unexplained; got != 1 {
		t.Fatalf("n0 unexplained = %d: another node's burst must not explain it", got)
	}
	if got := v.Nodes[1].Report.Unexplained; got != 0 {
		t.Fatalf("n1 unexplained = %d: its own burst must explain it", got)
	}
	if len(v.Nodes[0].Events) != 0 || len(v.Nodes[1].Events) != 1 {
		t.Fatalf("event slices = %d / %d, want 0 / 1", len(v.Nodes[0].Events), len(v.Nodes[1].Events))
	}
	if v.Unexplained != 1 || v.ExitCode() != 2 || v.AlertMismatches != 0 {
		t.Fatalf("verdict = %d unexplained exit %d, want 1 / 2", v.Unexplained, v.ExitCode())
	}
	var text strings.Builder
	if err := v.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	want := "  n0: [cap-violation] periods 30-30: "
	if lines := strings.Split(text.String(), "\n"); !strings.HasPrefix(lines[0], want) ||
		lines[1] != "doctor n0: 1 UNEXPLAINED of 1 incidents" ||
		lines[2] != "doctor n1: 1 incidents explained" {
		t.Fatalf("text:\n%s", text.String())
	}

	// A rack-scope burst reaches every node.
	v, err = DiagnoseNodes(NodesInput{Flights: flights, Events: []telemetry.Event{burstAt(telemetry.RackNode)}})
	if err != nil {
		t.Fatal(err)
	}
	if v.Unexplained != 0 || v.ExitCode() != 0 {
		t.Fatalf("rack burst left %d unexplained", v.Unexplained)
	}
}

func TestDiagnoseNodesAlertCheck(t *testing.T) {
	flights := map[string][]DecisionRecord{"n0": healthyRun(40), "n1": healthyRun(40)}
	// An alert on n1 with no incident behind it is an orphan.
	events := []telemetry.Event{
		{Type: telemetry.EventAlertFiring, Node: "n1", Period: 10, Detail: telemetry.AlertCapSustain},
		{Type: telemetry.EventAlertResolved, Node: "n1", Period: 12, Detail: telemetry.AlertCapSustain},
	}
	v, err := DiagnoseNodes(NodesInput{Flights: flights, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	if v.Nodes[1].Alerts != nil || v.ExitCode() != 0 {
		t.Fatal("alert check ran without CheckAlerts")
	}
	v, err = DiagnoseNodes(NodesInput{Flights: flights, Events: events, CheckAlerts: true})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Nodes[0].Alerts.Ok() || v.Nodes[1].Alerts.Ok() || v.AlertMismatches != 1 || v.ExitCode() != 2 {
		t.Fatalf("alert verdicts n0 %+v n1 %+v, want n0 clean, n1 one orphan", v.Nodes[0].Alerts, v.Nodes[1].Alerts)
	}
	var text strings.Builder
	if err := v.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "doctor n1: clean\n  n1: alert/doctor mismatch: 1 orphan alerts") {
		t.Fatalf("text:\n%s", text.String())
	}
}
