package flight

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/telemetry"
)

// NodesInput drives the per-node verdict over a multi-node run: one
// flight stream per node and the run's single event stream, which
// interleaves every member plus rack-scope events.
type NodesInput struct {
	// Flights maps node name to its flight stream.
	Flights map[string][]DecisionRecord
	// Events is the whole run's event stream.
	Events []telemetry.Event
	// MeasuredSlackFrac / TrueSlackFrac pass through to Diagnose.
	MeasuredSlackFrac float64
	TrueSlackFrac     float64
	// CheckAlerts adds the online-alert cross-check (CheckAlerts at its
	// default margins) to every node's verdict.
	CheckAlerts bool
}

// NodeVerdict is one node's diagnosis.
type NodeVerdict struct {
	Node string
	// Events is the node's slice of the event stream it was diagnosed
	// against: its own events plus the rack-scope ones.
	Events []telemetry.Event
	Report *Report
	// Alerts is nil when the alert cross-check is off.
	Alerts *AlertCheckResult
}

// NodesVerdict is the per-node verdict of a run, in node-name order.
type NodesVerdict struct {
	Nodes []NodeVerdict
	// Unexplained sums the nodes' unexplained incidents.
	Unexplained int
	// AlertMismatches counts nodes whose alert cross-check failed.
	AlertMismatches int
}

// DiagnoseNodes diagnoses every non-empty stream in name order against
// that node's events plus the rack-scope ones (policy changes,
// checkpoints, rack alerts), so a fault labelled with another node
// never explains this node's incident.
func DiagnoseNodes(in NodesInput) (*NodesVerdict, error) {
	names := make([]string, 0, len(in.Flights))
	for name, recs := range in.Flights {
		if len(recs) > 0 {
			//lint:ignore determinism names are sorted immediately below
			names = append(names, name)
		}
	}
	sort.Strings(names)
	nodeEvents := make(map[string][]telemetry.Event, len(names))
	for _, name := range names {
		nodeEvents[name] = nil
	}
	for _, e := range in.Events {
		if e.Node == telemetry.RackNode {
			for _, name := range names {
				nodeEvents[name] = append(nodeEvents[name], e)
			}
		} else if evs, ok := nodeEvents[e.Node]; ok {
			nodeEvents[e.Node] = append(evs, e)
		}
	}
	var alerts []AlertWindow
	if in.CheckAlerts {
		alerts = AlertWindows(in.Events)
	}
	v := &NodesVerdict{Nodes: make([]NodeVerdict, 0, len(names))}
	for _, name := range names {
		report, err := Diagnose(DoctorInput{
			Records: in.Flights[name], Events: nodeEvents[name],
			MeasuredSlackFrac: in.MeasuredSlackFrac, TrueSlackFrac: in.TrueSlackFrac,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		nv := NodeVerdict{Node: name, Events: nodeEvents[name], Report: report}
		v.Unexplained += report.Unexplained
		if in.CheckAlerts {
			nv.Alerts = CheckAlerts(AlertCheckInput{Node: name, Alerts: alerts, Incidents: report.Incidents})
			if !nv.Alerts.Ok() {
				v.AlertMismatches++
			}
		}
		v.Nodes = append(v.Nodes, nv)
	}
	return v, nil
}

// ExitCode follows the doctor's convention: 0 when every incident is
// explained and every alert cross-check is clean, 2 otherwise.
func (v *NodesVerdict) ExitCode() int {
	if v.Unexplained > 0 || v.AlertMismatches > 0 {
		return 2
	}
	return 0
}

// WriteText renders one "doctor <node>: …" line per node, preceded by
// its unexplained incidents and followed by its alert mismatch.
func (v *NodesVerdict) WriteText(w io.Writer) error {
	p := &printer{w: w}
	for _, nv := range v.Nodes {
		r := nv.Report
		verdict := "clean"
		if len(r.Incidents) > 0 {
			verdict = fmt.Sprintf("%d incidents explained", len(r.Incidents))
		}
		if r.Unexplained > 0 {
			verdict = fmt.Sprintf("%d UNEXPLAINED of %d incidents", r.Unexplained, len(r.Incidents))
			for _, inc := range r.Incidents {
				if !inc.Explained {
					p.f("  %s: [%s] periods %d-%d: %s\n", nv.Node, inc.Kind, inc.StartPeriod, inc.EndPeriod, inc.Detail)
				}
			}
		}
		p.f("doctor %s: %s\n", nv.Node, verdict)
		if nv.Alerts != nil {
			if err := nv.Alerts.Err(); err != nil {
				p.f("  %s: %v\n", nv.Node, err)
			}
		}
	}
	return p.Err()
}
