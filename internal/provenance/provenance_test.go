package provenance

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/flight"
)

// step runs one tracer barrier: a policy op applied at k, staged, a
// reallocation consuming it, and one cap change on node that settles
// at once. Returns the cap span's ID.
func step(t *testing.T, tr *Tracer, kind string, k int, node string, fromW, toW float64) string {
	t.Helper()
	op := tr.BeginPolicyOp(kind, k, node, "")
	tr.EndPolicyOp(op, k, true)
	tr.Stage(op)
	tr.BeginRealloc(k)
	id, parent := tr.CapChange(node, k, fromW, toW)
	if id == "" {
		t.Fatalf("cap change %s %g→%g below epsilon", node, fromW, toW)
	}
	if parent == "" {
		t.Fatal("cap change has no reallocation parent")
	}
	tr.ObserveNode(node, k, toW, false, false, nil)
	tr.EndStep(k)
	return id
}

func TestTracerLifecycle(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{JSONL: &buf})

	op := tr.BeginPolicyOp("budget", 4, "", "budget*5600")
	tr.EndPolicyOp(op, 4, true)
	tr.Stage(op)
	r := tr.BeginRealloc(4)
	capID, parent := tr.CapChange("n001", 4, 310, 268)
	if parent != r {
		t.Fatalf("cap parent %q, want the reallocation %q", parent, r)
	}
	// Not yet inside slack: stays open, then settles two periods later.
	tr.ObserveNode("n001", 4, 300, false, false, nil)
	tr.EndStep(4)
	tr.ObserveNode("n001", 5, 290, false, false, nil)
	tr.ObserveNode("n001", 6, 270, false, false, nil)
	tr.EndStep(6)
	if err := tr.Finish(6); err != nil {
		t.Fatal(err)
	}

	ld, err := LoadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cap := ld.Span(capID)
	if cap == nil {
		t.Fatalf("cap span %s missing after round-trip", capID)
	}
	if cap.Outcome != OutcomeSettled || cap.SettlePeriods != 3 || cap.EndPeriod != 6 {
		t.Fatalf("cap span %+v, want settled in 3 periods at 6", cap)
	}
	chain := ld.Chain(capID)
	if len(chain) != 3 || chain[0].ID != op || chain[1].ID != r || chain[2].ID != capID {
		t.Fatalf("chain %v, want op→realloc→cap", chain)
	}
	if got := ld.RootClass(capID); got != "budget" {
		t.Fatalf("root class %q, want budget", got)
	}
	text := FormatChain(chain)
	for _, want := range []string{"budget@4", "reallocation r1@4", "cap 310→268 W", "settled in 3 period"} {
		if !strings.Contains(text, want) {
			t.Fatalf("chain %q missing %q", text, want)
		}
	}
}

func TestCapChangeEpsilonAndSupersede(t *testing.T) {
	tr := New(Config{})
	tr.BeginRealloc(0)
	if id, _ := tr.CapChange("n0", 0, 300, 300.2); id != "" {
		t.Fatalf("sub-epsilon move minted span %s", id)
	}
	first, _ := tr.CapChange("n0", 0, 300, 250)
	tr.EndStep(0)
	// Next barrier moves the cap again before the first settles.
	tr.BeginRealloc(2)
	second, _ := tr.CapChange("n0", 2, 250, 220)
	tr.ObserveNode("n0", 2, 219, false, false, nil)
	tr.EndStep(2)
	var f, s *Span
	for _, sp := range tr.Spans() {
		switch sp.ID {
		case first:
			f = sp
		case second:
			s = sp
		}
	}
	if f.Outcome != OutcomeSuperseded || f.EndPeriod != 2 {
		t.Fatalf("first cap %+v, want superseded at 2", f)
	}
	if s.Outcome != OutcomeSettled || s.SettlePeriods != 1 {
		t.Fatalf("second cap %+v, want settled in 1", s)
	}
}

func TestKillDeathRecoveryParents(t *testing.T) {
	tr := New(Config{})
	kill := tr.BeginPolicyOp("kill", 8, "n2", "")
	tr.EndPolicyOp(kill, 8, true)
	tr.RegisterKill("n2", kill)
	death := tr.NodeDead("n2", 10, 3)
	resv := tr.ReservationReleased("n2", 16)
	revive := tr.BeginPolicyOp("revive", 18, "n2", "")
	tr.EndPolicyOp(revive, 18, true)
	tr.RegisterRevive("n2", revive)
	rec := tr.NodeRecovered("n2", 20)
	tr.EndStep(20)

	byID := map[string]*Span{}
	for _, sp := range tr.Spans() {
		byID[sp.ID] = sp
	}
	if byID[death].Parent != kill {
		t.Fatalf("death parent %q, want the kill op", byID[death].Parent)
	}
	if byID[resv].Parent != death {
		t.Fatalf("reservation parent %q, want the death window", byID[resv].Parent)
	}
	if byID[rec].Parent != revive {
		t.Fatalf("recovery parent %q, want the revive op", byID[rec].Parent)
	}
	if byID[death].Outcome != OutcomeRecovered || byID[death].EndPeriod != 20 {
		t.Fatalf("death window %+v, want recovered at 20", byID[death])
	}
	// All three staged: the next reallocation consumes them in order.
	r := tr.BeginRealloc(20)
	var rsp *Span
	for _, sp := range tr.Spans() {
		if sp.ID == r {
			rsp = sp
		}
	}
	if rsp.Parent != death || len(rsp.Causes) != 3 {
		t.Fatalf("realloc %+v, want parent=death and 3 causes", rsp)
	}
}

func TestFailsafeFaultAndAlertWindows(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{JSONL: &buf})
	tr.ObserveNode("n0", 3, 200, true, false, []string{"meter-freeze", "hbm-throttle"})
	tr.OnAlertEvent("power_overage", "n0", 3, 1.07, true)
	tr.EndStep(3)
	tr.ObserveNode("n0", 7, 200, false, false, nil)
	tr.OnAlertEvent("power_overage", "n0", 7, 0.99, false)
	tr.EndStep(7)
	if err := tr.Finish(7); err != nil {
		t.Fatal(err)
	}
	ld, err := LoadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var fs, fl, al *Span
	for _, sp := range ld.Spans {
		switch sp.Kind {
		case KindFailSafe:
			fs = sp
		case KindFault:
			fl = sp
		case KindAlert:
			al = sp
		}
	}
	if fs == nil || fs.Outcome != OutcomeExited || fs.EndPeriod != 7 {
		t.Fatalf("failsafe window %+v, want exited at 7", fs)
	}
	if fl == nil || fl.Detail != "meter-freeze,hbm-throttle" {
		t.Fatalf("fault window %+v, want joined fault detail", fl)
	}
	if al == nil || al.Outcome != OutcomeResolved || al.EndPeriod != 7 {
		t.Fatalf("alert window %+v, want resolved at 7", al)
	}
	if got := ld.RootClass(al.ID); got != "alert:power_overage" {
		t.Fatalf("alert root class %q", got)
	}
}

// TestFlushOrder pins the worker-invariance mechanism: alert-side
// mints queue separately and always flush after the coordinator-side
// mints of the same barrier, whatever order they happened in.
func TestFlushOrder(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{JSONL: &buf})
	// Alert fires first in wall-clock order...
	tr.OnAlertEvent("slo", "n1", 2, 1.2, true)
	tr.BeginRealloc(2)
	tr.EndStep(2)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	// ...but the coordinator's reallocation line lands first.
	if !strings.Contains(lines[0], `"r1"`) || !strings.Contains(lines[1], "alert:") {
		t.Fatalf("flush order wrong: %v", lines)
	}
}

func TestUniqueIDAndRejectedOp(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{JSONL: &buf})
	a := tr.BeginPolicyOp("join", 6, "", "heavy")
	tr.EndPolicyOp(a, 6, true)
	b := tr.BeginPolicyOp("join", 6, "", "light")
	tr.EndPolicyOp(b, 6, false)
	if a == b {
		t.Fatalf("duplicate op IDs: %s", a)
	}
	tr.EndStep(6)
	if err := tr.Finish(6); err != nil {
		t.Fatal(err)
	}
	ld, err := LoadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sp := ld.Span(b); sp == nil || sp.Outcome != OutcomeRejected {
		t.Fatalf("second op %+v, want rejected", sp)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestStickyWriteError(t *testing.T) {
	tr := New(Config{JSONL: &failWriter{}})
	for k := 0; k < 3; k++ {
		tr.BeginRealloc(k * 2)
		tr.CapChange("n0", k*2, 300, 300+float64(k+1)*50)
		tr.EndStep(k * 2)
	}
	if err := tr.Err(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Err() = %v, want the first write error", err)
	}
	if err := tr.Finish(6); err == nil {
		t.Fatal("Finish swallowed the sticky write error")
	}
}

func TestFinishClosesOpenSpans(t *testing.T) {
	tr := New(Config{})
	tr.BeginRealloc(0)
	tr.CapChange("n0", 0, 300, 250)
	tr.NodeDead("n1", 0, 3)
	tr.EndStep(0)
	if err := tr.Finish(9); err != nil {
		t.Fatal(err)
	}
	for _, sp := range tr.Spans() {
		if sp.Open() {
			t.Fatalf("span %s still open after Finish", sp.ID)
		}
		if sp.ID[0] == 'c' || sp.ID[0] == 'd' {
			if sp.Outcome != OutcomeRunEnd || sp.EndPeriod != 9 {
				t.Fatalf("span %+v, want run-end at 9", sp)
			}
		}
	}
}

func TestSpanTreesJSONRange(t *testing.T) {
	tr := New(Config{})
	step(t, tr, "budget", 2, "n0", 300, 250)
	step(t, tr, "cap", 40, "n1", 300, 200)
	b, err := tr.SpanTreesJSON(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	var trees []treeNode
	if err := json.Unmarshal(b, &trees); err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 {
		t.Fatalf("%d trees in [0,10], want 1", len(trees))
	}
	if trees[0].Kind != KindPolicyOp || len(trees[0].Children) != 1 || len(trees[0].Children[0].Children) != 1 {
		t.Fatalf("tree shape wrong: %+v", trees[0])
	}
	// An open-ended range sees both roots.
	b, err = tr.SpanTreesJSON(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &trees); err != nil {
		t.Fatal(err)
	}
	if len(trees) != 2 {
		t.Fatalf("%d trees unbounded, want 2", len(trees))
	}
}

func TestLoadTraceErrors(t *testing.T) {
	if _, err := LoadTrace(strings.NewReader(`{"rec":"span","id":"a","kind":"x"}` + "\n" + `{"rec":"span","id":"a","kind":"x"}` + "\n")); err == nil {
		t.Fatal("duplicate span accepted")
	}
	if _, err := LoadTrace(strings.NewReader(`{"rec":"bogus","id":"a"}` + "\n")); err == nil {
		t.Fatal("unknown record kind accepted")
	}
	if _, err := LoadTrace(strings.NewReader(`{"rec":"close","id":"ghost"}` + "\n")); err == nil {
		t.Fatal("close for unknown span accepted")
	}
}

func TestAttributionAndVerify(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{JSONL: &buf})
	capID := step(t, tr, "budget", 0, "n0", 300, 250)
	if err := tr.Finish(3); err != nil {
		t.Fatal(err)
	}
	ld, err := LoadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	parent := ld.Span(capID).Parent
	recs := []flight.DecisionRecord{
		{Period: 0, SetpointW: 300, TruePowerW: 290, CauseID: "", ParentID: ""},
		{Period: 1, SetpointW: 250, TruePowerW: 249, CauseID: capID, ParentID: parent},
		{Period: 2, SetpointW: 250, TruePowerW: 248, CauseID: capID, ParentID: parent},
	}
	if probs := ld.VerifyAttribution("n0", recs, DefaultEpsilonW); len(probs) != 0 {
		t.Fatalf("clean stream flagged: %v", probs)
	}
	// The all-streams form: the fixture plus a flat stream with no cap
	// change; stripping the one cause is one problem of one change.
	flat := []flight.DecisionRecord{{Period: 0, SetpointW: 400}, {Period: 1, SetpointW: 400}}
	if probs, changes := ld.VerifyFlights(map[string][]flight.DecisionRecord{"n0": recs, "n1": flat}, DefaultEpsilonW); len(probs) != 0 || changes != 1 {
		t.Fatalf("VerifyFlights clean = %v, %d changes; want none, 1", probs, changes)
	}
	stripped := append([]flight.DecisionRecord(nil), recs...)
	stripped[1].CauseID = ""
	probs, changes := ld.VerifyFlights(map[string][]flight.DecisionRecord{"n0": stripped, "n1": flat}, DefaultEpsilonW)
	if want := "n0 period 1: cap moved 300.0→250.0 W with no cause"; len(probs) != 1 || probs[0] != want || changes != 1 {
		t.Fatalf("VerifyFlights stripped = %q, %d changes; want [%q], 1", probs, changes, want)
	}
	rows := ld.Attribution(map[string][]flight.DecisionRecord{"n0": recs}, 4)
	got := map[string]AttributionRow{}
	for _, r := range rows {
		got[r.Class] = r
	}
	if r := got["budget"]; r.Periods != 2 || r.CapChanges != 1 {
		t.Fatalf("budget row %+v, want 2 periods / 1 change", r)
	}
	if r := got[ClassInitial]; r.Periods != 1 {
		t.Fatalf("initial row %+v, want 1 period", r)
	}
	table := FormatAttribution(rows)
	if !strings.Contains(table, "budget") || !strings.Contains(table, "total") {
		t.Fatalf("table missing rows:\n%s", table)
	}

	// Every corruption the verifier must catch.
	for name, mut := range map[string]func(r []flight.DecisionRecord){
		"missing cause":   func(r []flight.DecisionRecord) { r[1].CauseID = "" },
		"stale cause":     func(r []flight.DecisionRecord) { r[1].CauseID = r[0].CauseID },
		"unknown span":    func(r []flight.DecisionRecord) { r[1].CauseID = "cap:ghost@1" },
		"wrong parent":    func(r []flight.DecisionRecord) { r[1].ParentID = "r99" },
		"cause from past": func(r []flight.DecisionRecord) { r[1].Period = -1 },
	} {
		bad := make([]flight.DecisionRecord, len(recs))
		copy(bad, recs)
		mut(bad)
		if probs := ld.VerifyAttribution("n0", bad, DefaultEpsilonW); len(probs) == 0 {
			t.Errorf("%s not flagged", name)
		}
	}
}
