package provenance

// The offline half of the package: load a trace JSONL stream back into
// a span forest, walk causal chains, render them for humans, attribute
// node-periods and energy to root-cause classes, and verify that every
// cap change in a flight stream is covered by a cap-change span — the
// engine behind capgpu-doctor's -trace (explain, verify, attribution
// table) and the soak gate's zero-unattributed check.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/flight"
)

// Root-cause classes beyond the policy-op kinds.
const (
	ClassPeriodic           = "periodic" // causeless reallocation (demand/budget drift)
	ClassHeartbeatLoss      = "heartbeat-loss"
	ClassRecovery           = "recovery"
	ClassReservationRelease = "reservation-release"
	ClassNodeRelease        = "node-release"
	ClassInitial            = "initial"      // periods before the first traced cap change
	ClassUnattributed       = "unattributed" // CauseID missing from the trace — a bug
)

// Trace is a loaded span forest.
type Trace struct {
	Spans []*Span // stream order
	byID  map[string]*Span
}

// LoadTrace parses a trace JSONL stream written by a Tracer.
func LoadTrace(r io.Reader) (*Trace, error) {
	tr := &Trace{byID: map[string]*Span{}}
	dec := json.NewDecoder(r)
	line := 0
	for {
		var l traceLine
		if err := dec.Decode(&l); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("provenance: trace line %d: %w", line+1, err)
		}
		line++
		switch l.Rec {
		case "span":
			if tr.byID[l.ID] != nil {
				return nil, fmt.Errorf("provenance: trace line %d: duplicate span %q", line, l.ID)
			}
			s := &Span{
				ID: l.ID, Parent: l.Parent, Causes: l.Causes, Kind: l.Kind,
				Period: l.Period, Node: l.Node, Detail: l.Detail,
				FromW: l.FromW, ToW: l.ToW, EndPeriod: l.EndPeriod, Outcome: l.Outcome,
			}
			tr.byID[s.ID] = s
			tr.Spans = append(tr.Spans, s)
		case "close":
			s := tr.byID[l.ID]
			if s == nil {
				return nil, fmt.Errorf("provenance: trace line %d: close for unknown span %q", line, l.ID)
			}
			s.EndPeriod = l.EndPeriod
			s.Outcome = l.Outcome
			s.SettlePeriods = l.SettlePeriods
		default:
			return nil, fmt.Errorf("provenance: trace line %d: unknown record kind %q", line, l.Rec)
		}
	}
	return tr, nil
}

// Span returns the span by ID, nil when absent.
func (tr *Trace) Span(id string) *Span { return tr.byID[id] }

// Chain walks from the span's root cause down to the span itself.
// Unknown IDs and cycles yield a nil chain.
func (tr *Trace) Chain(id string) []*Span {
	var rev []*Span
	seen := map[string]bool{}
	for cur := tr.byID[id]; cur != nil; cur = tr.byID[cur.Parent] {
		if seen[cur.ID] {
			return nil
		}
		seen[cur.ID] = true
		rev = append(rev, cur)
		if cur.Parent == "" {
			break
		}
	}
	if len(rev) == 0 {
		return nil
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// RootClass classifies the root cause behind a span ID: the op kind
// for policy-op roots ("budget", "drain", "kill", …), the dedicated
// class constants for coordinator-minted roots, ClassUnattributed for
// IDs the trace does not contain.
func (tr *Trace) RootClass(id string) string {
	chain := tr.Chain(id)
	if chain == nil {
		return ClassUnattributed
	}
	root := chain[0]
	switch root.Kind {
	case KindPolicyOp:
		return opKindFromID(root.ID)
	case KindRealloc:
		return ClassPeriodic
	case KindNodeDead:
		return ClassHeartbeatLoss
	case KindNodeRecovered:
		return ClassRecovery
	case KindReservationReleased:
		return ClassReservationRelease
	case KindNodeReleased:
		return ClassNodeRelease
	case KindAlert:
		return "alert:" + root.Detail
	}
	return root.Kind
}

// opKindFromID extracts the op kind from a policy-op span ID of the
// form "op:<kind>@<period>[#n]".
func opKindFromID(id string) string {
	s := strings.TrimPrefix(id, "op:")
	if at := strings.IndexByte(s, '@'); at >= 0 {
		s = s[:at]
	}
	return s
}

// FormatSpan renders one span the way the explain chain prints it.
func FormatSpan(s *Span) string {
	switch s.Kind {
	case KindPolicyOp:
		out := strings.TrimPrefix(s.ID, "op:")
		if s.Detail != "" {
			out += " [" + s.Detail + "]"
		}
		if s.Outcome == OutcomeRejected {
			out += " (rejected)"
		}
		return out
	case KindRealloc:
		if s.Detail == "periodic" {
			return "reallocation " + s.ID + "@" + strconv.Itoa(s.Period) + " (periodic)"
		}
		return "reallocation " + s.ID + "@" + strconv.Itoa(s.Period)
	case KindCapChange:
		out := fmt.Sprintf("node %s cap %.0f→%.0f W", s.Node, s.FromW, s.ToW)
		switch s.Outcome {
		case OutcomeSettled:
			out += fmt.Sprintf(" → settled in %d period", s.SettlePeriods)
			if s.SettlePeriods != 1 {
				out += "s"
			}
		case OutcomeSuperseded:
			out += fmt.Sprintf(" → superseded@%d", s.EndPeriod)
		case OutcomeRunEnd:
			out += " → open at run end"
		case "":
			out += " → open"
		}
		return out
	case KindNodeDead:
		return fmt.Sprintf("heartbeat-loss %s@%d (%s)", s.Node, s.Period, s.Detail)
	case KindNodeRecovered:
		return fmt.Sprintf("recovery %s@%d", s.Node, s.Period)
	case KindReservationReleased:
		return fmt.Sprintf("reservation-released %s@%d", s.Node, s.Period)
	case KindNodeReleased:
		return fmt.Sprintf("node-released %s@%d", s.Node, s.Period)
	case KindAlert:
		return fmt.Sprintf("alert %s %s@%d", s.Detail, s.Node, s.Period)
	case KindFailSafe:
		return fmt.Sprintf("failsafe %s@%d", s.Node, s.Period)
	case KindFault:
		return fmt.Sprintf("fault %s@%d (%s)", s.Node, s.Period, s.Detail)
	}
	return s.ID
}

// FormatChain renders a causal chain as one "a → b → c" line.
func FormatChain(chain []*Span) string {
	parts := make([]string, len(chain))
	for i, s := range chain {
		parts[i] = FormatSpan(s)
	}
	return strings.Join(parts, " → ")
}

// AttributionRow is one root-cause class's share of the run.
type AttributionRow struct {
	Class      string  `json:"class"`
	CapChanges int     `json:"cap_changes"`          // cap-change spans rooted in the class
	Periods    int     `json:"periods"`              // node-periods run under the class
	EnergyWh   float64 `json:"energy_wh"`            // true energy drawn during those periods
	AvgSettle  float64 `json:"avg_settle,omitempty"` // mean settle periods of settled changes
}

// Attribution folds the trace and the per-node flight streams into the
// end-of-run table: every node-period is charged to the root-cause
// class of the cap it ran under (ClassInitial before the first traced
// change), every cap-change span to its root class, energy integrated
// at periodS seconds per period from the breaker-side truth.
func (tr *Trace) Attribution(flights map[string][]flight.DecisionRecord, periodS float64) []AttributionRow {
	rows := map[string]*AttributionRow{}
	row := func(class string) *AttributionRow {
		r := rows[class]
		if r == nil {
			r = &AttributionRow{Class: class}
			rows[class] = r
		}
		return r
	}
	settleSum := map[string]int{}
	settleN := map[string]int{}
	for _, s := range tr.Spans {
		if s.Kind != KindCapChange {
			continue
		}
		class := tr.RootClass(s.ID)
		row(class).CapChanges++
		if s.Outcome == OutcomeSettled {
			settleSum[class] += s.SettlePeriods
			settleN[class]++
		}
	}
	for _, n := range streamNames(flights) {
		for _, rec := range flights[n] {
			class := ClassInitial
			if rec.CauseID != "" {
				class = tr.RootClass(rec.CauseID)
			}
			r := row(class)
			r.Periods++
			r.EnergyWh += rec.TruePowerW * periodS / 3600
		}
	}
	classes := make([]string, 0, len(rows))
	for c := range rows {
		//lint:ignore determinism classes are sorted immediately below
		classes = append(classes, c)
	}
	sort.Strings(classes)
	out := make([]AttributionRow, 0, len(classes))
	for _, c := range classes {
		r := *rows[c]
		if settleN[c] > 0 {
			r.AvgSettle = float64(settleSum[c]) / float64(settleN[c])
		}
		out = append(out, r)
	}
	return out
}

// FormatAttribution renders the attribution rows as an aligned text
// table.
func FormatAttribution(rows []AttributionRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %12s %10s %12s %10s\n", "root cause", "cap changes", "periods", "energy (Wh)", "settle")
	totalChanges, totalPeriods, totalWh := 0, 0, 0.0
	for _, r := range rows {
		settle := "-"
		if r.AvgSettle > 0 {
			settle = fmt.Sprintf("%.1f", r.AvgSettle)
		}
		fmt.Fprintf(&b, "%-24s %12d %10d %12.1f %10s\n", r.Class, r.CapChanges, r.Periods, r.EnergyWh, settle)
		totalChanges += r.CapChanges
		totalPeriods += r.Periods
		totalWh += r.EnergyWh
	}
	fmt.Fprintf(&b, "%-24s %12d %10d %12.1f %10s\n", "total", totalChanges, totalPeriods, totalWh, "")
	return b.String()
}

// streamNames returns the node names of a flight-stream map, sorted.
func streamNames(flights map[string][]flight.DecisionRecord) []string {
	names := make([]string, 0, len(flights))
	for n := range flights {
		//lint:ignore determinism names are sorted immediately below
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// VerifyFlights runs VerifyAttribution over every node's stream in name
// order and counts the cap changes of at least epsilonW it checked.
func (tr *Trace) VerifyFlights(flights map[string][]flight.DecisionRecord, epsilonW float64) (problems []string, changes int) {
	for _, n := range streamNames(flights) {
		recs := flights[n]
		problems = append(problems, tr.VerifyAttribution(n, recs, epsilonW)...)
		for i := 1; i < len(recs); i++ {
			if d := recs[i].SetpointW - recs[i-1].SetpointW; d >= epsilonW || -d >= epsilonW {
				changes++
			}
		}
	}
	return problems, changes
}

// VerifyAttribution checks one node's flight stream against the trace:
// every setpoint move of at least epsilonW between consecutive records
// must carry a CauseID resolving to a cap-change span for that node
// whose target matches the new setpoint. It returns one message per
// violation (empty = fully attributed).
func (tr *Trace) VerifyAttribution(node string, recs []flight.DecisionRecord, epsilonW float64) []string {
	var problems []string
	for i, rec := range recs {
		if i > 0 {
			d := rec.SetpointW - recs[i-1].SetpointW
			if (d >= epsilonW || -d >= epsilonW) && rec.CauseID == "" {
				problems = append(problems, fmt.Sprintf(
					"%s period %d: cap moved %.1f→%.1f W with no cause",
					node, rec.Period, recs[i-1].SetpointW, rec.SetpointW))
				continue
			}
			if (d >= epsilonW || -d >= epsilonW) && rec.CauseID == recs[i-1].CauseID {
				problems = append(problems, fmt.Sprintf(
					"%s period %d: cap moved %.1f→%.1f W but the cause (%s) did not change",
					node, rec.Period, recs[i-1].SetpointW, rec.SetpointW, rec.CauseID))
				continue
			}
		}
		if rec.CauseID == "" {
			continue
		}
		s := tr.byID[rec.CauseID]
		switch {
		case s == nil:
			problems = append(problems, fmt.Sprintf(
				"%s period %d: cause %s not in the trace", node, rec.Period, rec.CauseID))
		case s.Kind != KindCapChange:
			problems = append(problems, fmt.Sprintf(
				"%s period %d: cause %s is a %s span, not a cap change", node, rec.Period, rec.CauseID, s.Kind))
		case s.Node != node:
			problems = append(problems, fmt.Sprintf(
				"%s period %d: cause %s belongs to node %s", node, rec.Period, rec.CauseID, s.Node))
		case s.Period > rec.Period:
			problems = append(problems, fmt.Sprintf(
				"%s period %d: cause %s minted later, at period %d", node, rec.Period, rec.CauseID, s.Period))
		case rec.ParentID != s.Parent:
			problems = append(problems, fmt.Sprintf(
				"%s period %d: record parent %q disagrees with span parent %q", node, rec.Period, rec.ParentID, s.Parent))
		}
	}
	return problems
}
