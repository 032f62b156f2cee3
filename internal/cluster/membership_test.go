package cluster

import (
	"math"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// captureSink records emitted events; everything else is discarded.
type captureSink struct {
	telemetry.NopSink
	events []telemetry.Event
}

func (s *captureSink) Emit(e telemetry.Event) { s.events = append(s.events, e) }

func TestNodeCapCeiling(t *testing.T) {
	n := buildNode(t, "a", 1, 2, 0)
	minW, maxW := n.CapRangeW()
	if minW <= 0 || maxW <= minW {
		t.Fatalf("implausible cap range [%.1f, %.1f]", minW, maxW)
	}
	if n.CapCeilingW() != 0 {
		t.Fatalf("fresh node has ceiling %.1f, want none", n.CapCeilingW())
	}

	// A mid-range ceiling lowers the allocator-visible max.
	mid := (minW + maxW) / 2
	n.SetCapCeilingW(mid)
	if _, gotMax := n.CapRangeW(); gotMax != mid {
		t.Fatalf("ceiling %.1f: CapRangeW max = %.1f", mid, gotMax)
	}
	if n.CapCeilingW() != mid {
		t.Fatalf("CapCeilingW = %.1f, want %.1f", n.CapCeilingW(), mid)
	}

	// Ceilings below the achievable floor clamp to the floor.
	n.SetCapCeilingW(minW / 2)
	if n.CapCeilingW() != minW {
		t.Fatalf("sub-floor ceiling stored as %.1f, want floor %.1f", n.CapCeilingW(), minW)
	}

	// Ceilings above the hardware max are inert.
	n.SetCapCeilingW(maxW * 2)
	if _, gotMax := n.CapRangeW(); gotMax != maxW {
		t.Fatalf("above-max ceiling: CapRangeW max = %.1f, want %.1f", gotMax, maxW)
	}

	// Zero clears the clamp entirely.
	n.SetCapCeilingW(0)
	if gotMin, gotMax := n.CapRangeW(); gotMin != minW || gotMax != maxW {
		t.Fatalf("cleared ceiling: CapRangeW = [%.1f, %.1f], want [%.1f, %.1f]",
			gotMin, gotMax, minW, maxW)
	}
}

// TestMembershipChurn exercises AddNode/RemoveNode against a live rack,
// including the staging-buffer splice used by the control-plane daemon
// and node events routed through a joiner's own harness sink, on a
// coordinator built as a struct literal (so ensureState must size all
// the liveness bookkeeping itself).
func TestMembershipChurn(t *testing.T) {
	a := buildNode(t, "a", 11, 2, 0)
	b := buildNode(t, "b", 22, 2, 0)
	c := &Coordinator{
		Nodes:   []*Node{a, b},
		Policy:  Uniform{},
		BudgetW: func(int) float64 { return 900 },
		Workers: 2, // force staged telemetry so AddNode must splice a buffer
	}
	sink := &captureSink{}
	a.Harness().SetTelemetry(sink, "a")

	if err := c.Run(4); err != nil {
		t.Fatal(err)
	}

	if err := c.AddNode(nil); err == nil {
		t.Fatal("expected nil-node error")
	}
	dup := buildNode(t, "a", 33, 2, 0)
	if err := c.AddNode(dup); err == nil || !strings.Contains(err.Error(), "already a member") {
		t.Fatalf("duplicate add: %v", err)
	}

	d := buildNode(t, "d", 44, 2, 0)
	d.Harness().SetTelemetry(sink, "rack/d")
	if err := c.AddNode(d); err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 3 || len(c.Liveness()) != 3 {
		t.Fatalf("after add: %d nodes, %d liveness slots", len(c.Nodes), len(c.Liveness()))
	}
	if len(c.buffers) != 3 || c.buffers[2] == nil {
		t.Fatalf("instrumented joiner did not get a staging buffer")
	}
	if err := c.Run(4); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Records()); got != 4 {
		t.Fatalf("joiner stepped %d periods, want 4", got)
	}

	if _, err := c.RemoveNode("ghost"); err == nil {
		t.Fatal("expected unknown-member error")
	}
	removed, err := c.RemoveNode("b")
	if err != nil {
		t.Fatal(err)
	}
	if removed.Name != "b" || len(removed.Records()) != 8 {
		t.Fatalf("removed %q with %d records, want b with 8", removed.Name, len(removed.Records()))
	}
	if len(c.Nodes) != 2 || len(c.buffers) != 2 {
		t.Fatalf("bookkeeping not spliced: nodes=%d buffers=%d", len(c.Nodes), len(c.buffers))
	}
	// Silence the joiner: its death event goes through its own harness
	// sink, past the staging buffer, under its harness label.
	c.Silenced = func(_ int, name string) bool { return name == "d" }
	before := len(sink.events)
	if err := c.Run(2); err != nil {
		t.Fatal(err)
	}
	death := -1
	for i, e := range sink.events[before:] {
		if e.Type == telemetry.EventNodeDead {
			if death >= 0 || e.Node != "rack/d" {
				t.Fatalf("unexpected death event %+v, want one labeled %q", e, "rack/d")
			}
			death = before + i
		}
	}
	if death < 0 {
		t.Fatal("joiner death not reported")
	}
	// Unbuffered: the roll call's event precedes the period's flushed
	// loop telemetry, including the incumbent's (flushed before d's).
	for _, e := range sink.events[before:death] {
		if e.Node == "a" && e.Period == sink.events[death].Period {
			t.Fatalf("death event went through the staging buffer: %+v flushed before it", e)
		}
	}

	if _, err := c.RemoveNode("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RemoveNode("a"); err == nil || !strings.Contains(err.Error(), "last member") {
		t.Fatalf("last-member removal: %v", err)
	}
}

// TestReservationReleaseAfterHold drives one node silent past the
// reservation hold and checks the lifecycle: a guard-banded reservation
// while the hold runs, then exactly one reservation-released event and
// the budget returned to the live nodes.
func TestReservationReleaseAfterHold(t *testing.T) {
	nodes := []*Node{
		buildNode(t, "a", 11, 2, 0),
		buildNode(t, "b", 22, 2, 0),
	}
	co, err := NewCoordinator(nodes, Uniform{}, func(int) float64 { return 900 })
	if err != nil {
		t.Fatal(err)
	}
	co.ReservationHoldPeriods = 4
	co.Silenced = func(k int, name string) bool { return name == "b" && k >= 3 }
	sink := &captureSink{}
	co.Telemetry = sink
	co.resReleased = nil // pre-hold coordinator shape: ensureState must resize

	heldW := 0.0
	for k := 0; k < 12; k++ {
		if err := co.Step(k); err != nil {
			t.Fatal(err)
		}
		if k == 4 { // dead (missed >= 2) but hold (4 misses) not yet expired
			heldW = co.ReservedW()
		}
	}

	if !co.NodeDead(1) || co.NodeDead(0) {
		t.Fatalf("liveness wrong: %v", co.Liveness())
	}
	if heldW <= 0 {
		t.Fatal("no budget reserved for the dead node during the hold")
	}
	if got := co.ReservedW(); got != 0 {
		t.Fatalf("reservation still held after the hold expired: %.1f W", got)
	}

	var released []telemetry.Event
	for _, e := range sink.events {
		if e.Type == telemetry.EventReservationReleased {
			released = append(released, e)
		}
	}
	if len(released) != 1 {
		t.Fatalf("got %d reservation-released events, want exactly 1", len(released))
	}
	if math.Abs(released[0].Value-heldW) > 1e-9 {
		t.Fatalf("released %.2f W but the hold reserved %.2f W", released[0].Value, heldW)
	}
	if released[0].Node != "b" || !strings.Contains(released[0].Detail, "hold=4") {
		t.Fatalf("release event mislabeled: %+v", released[0])
	}
}

func TestRunPropagatesStepError(t *testing.T) {
	n := buildNode(t, "a", 1, 2, 0)
	co, err := NewCoordinator([]*Node{n}, badPolicy{}, func(int) float64 { return 900 })
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Run(3); err == nil || !strings.Contains(err.Error(), "returned") {
		t.Fatalf("Run swallowed the policy error: %v", err)
	}
}
