package cluster

import (
	"testing"
	"testing/quick"

	"repro/internal/baselines"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// cheapNode builds a node around a Safe Fixed-Step controller — no
// system identification, so fault/property tests stay fast.
func cheapNode(t *testing.T, name string, seed int64) *Node {
	t.Helper()
	s, err := sim.NewServer(sim.DefaultTestbed(seed))
	if err != nil {
		t.Fatal(err)
	}
	zoo := workload.Zoo()
	p, err := workload.NewPipeline(workload.PipelineConfig{
		Model: zoo["resnet50"], Workers: 2, PreLatencyBase: 0.004, PreLatencyExp: 0.4,
		ArrivalRateMax: 250, ArrivalExp: 0.5, QueueCap: 60, FcMax: 2.4, FgMax: 1350, Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachPipeline(0, p); err != nil {
		t.Fatal(err)
	}
	ctrl, err := baselines.NewFixedStep(s, 3, 30)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(name, s, ctrl, 0)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// liveCommandedW returns the sum of caps commanded to heartbeating
// nodes. The coordinator's safety contract is that this never exceeds
// the breaker budget minus its reservations for silent nodes — silent
// nodes draw power the coordinator cannot command away, so it must
// only ever hand out what is left. (When every node is silent the
// reservation alone can exceed the breaker; nothing is commanded then,
// and the excess is physics, not allocation.)
func liveCommandedW(c *Coordinator) float64 {
	total := 0.0
	for i, m := range c.Liveness() {
		if m == 0 {
			total += c.Nodes[i].Assigned()
		}
	}
	return total
}

// commandedBudgetW is the allocation ceiling the contract compares
// against: the breaker minus reservations, floored at zero.
func commandedBudgetW(c *Coordinator, budget float64) float64 {
	b := budget - c.ReservedW()
	if b < 0 {
		b = 0
	}
	return b
}

// TestCoordinatorServerDropoutRedistributes: a dropped server runs
// open-loop, gets declared dead after HeartbeatMisses, its budget is
// redistributed with a guard band, and the commanded total never
// exceeds the breaker.
func TestCoordinatorServerDropoutRedistributes(t *testing.T) {
	nodes := []*Node{
		cheapNode(t, "a", 301),
		cheapNode(t, "b", 302),
		cheapNode(t, "c", 303),
	}
	const budget = 2700.0
	co, err := NewCoordinator(nodes, DemandProportional{}, func(int) float64 { return budget })
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.Parse("server-dropout@8+8:node0", 13)
	if err != nil {
		t.Fatal(err)
	}
	co.Faults = sched
	var beforeB, duringB float64
	for k := 0; k < 24; k++ {
		if k == 8 {
			beforeB = nodes[1].Assigned()
		}
		if err := co.Step(k); err != nil {
			t.Fatal(err)
		}
		if co.NodeDead(0) && nodes[1].Assigned() > duringB {
			duringB = nodes[1].Assigned()
		}
		if k%co.RackPeriods == 0 {
			if got, lim := liveCommandedW(co), commandedBudgetW(co, budget); got > lim+1e-6 {
				t.Fatalf("period %d: commanded %g W exceeds remaining budget %g W", k, got, lim)
			}
		}
		switch {
		case k >= 8 && k < 16:
			last := nodes[0].Records()[len(nodes[0].Records())-1]
			if !last.Uncontrolled {
				t.Fatalf("period %d: dropped node still ran its control loop", k)
			}
			if k >= 9 && !co.NodeDead(0) {
				t.Fatalf("period %d: node0 not declared dead after 2 misses", k)
			}
		case k >= 16:
			if co.NodeDead(0) {
				t.Fatalf("period %d: node0 still dead after heartbeat returned", k)
			}
		}
	}
	// The survivors inherited the dead node's budget (minus the guard
	// band) at some reallocation during the outage.
	if duringB <= beforeB {
		t.Fatalf("redistribution never raised a survivor's share (b: %g -> %g)",
			beforeB, duringB)
	}
	// Recovery: the returned node rejoins allocation with a real share.
	if nodes[0].Assigned() <= 0 {
		t.Fatal("recovered node got no budget")
	}
}

// TestCoordinatorNodeEventLabels: death/recovery events go through the
// node's harness sink when it has one, so they carry the label the
// node's harness telemetry uses ("<policy>/<node>" in the rack rig) and
// the death/recovery counters join that node's loop metrics; without
// harness telemetry, the rack sink gets the bare node name.
func TestCoordinatorNodeEventLabels(t *testing.T) {
	run := func(wire func(co *Coordinator, hub *telemetry.Hub)) (*telemetry.Hub, []telemetry.Event) {
		nodes := []*Node{cheapNode(t, "a", 321), cheapNode(t, "b", 322)}
		co, err := NewCoordinator(nodes, Uniform{}, func(int) float64 { return 1900 })
		if err != nil {
			t.Fatal(err)
		}
		sched, err := faults.Parse("server-dropout@2+4:node0", 5)
		if err != nil {
			t.Fatal(err)
		}
		co.Faults = sched
		hub := telemetry.New(telemetry.Config{})
		wire(co, hub)
		if err := co.Run(12); err != nil {
			t.Fatal(err)
		}
		var out []telemetry.Event
		for _, e := range hub.Events() {
			if e.Type == telemetry.EventNodeDead || e.Type == telemetry.EventNodeRecovered {
				out = append(out, e)
			}
		}
		return hub, out
	}

	hub, labeled := run(func(co *Coordinator, hub *telemetry.Hub) {
		co.Telemetry = hub.NodeSink("uniform")
		for _, n := range co.Nodes {
			n.Harness().SetTelemetry(hub, "uniform/"+n.Name)
		}
	})
	if len(labeled) != 2 {
		t.Fatalf("got %d death/recovery events, want death + recovery", len(labeled))
	}
	for _, e := range labeled {
		if e.Node != "uniform/a" {
			t.Fatalf("event %s labeled %q, want harness label %q", e.Type, e.Node, "uniform/a")
		}
	}
	if got := hub.CounterValue("capgpu_node_deaths_total", telemetry.L("node", "uniform/a")); got != 1 {
		t.Fatalf("death counter under harness label = %g, want 1", got)
	}

	_, bare := run(func(co *Coordinator, hub *telemetry.Hub) {
		co.Telemetry = hub
	})
	if len(bare) != 2 {
		t.Fatalf("fallback: got %d death/recovery events, want 2", len(bare))
	}
	for _, e := range bare {
		if e.Node != "a" {
			t.Fatalf("fallback event %s labeled %q, want bare %q", e.Type, e.Node, "a")
		}
	}
}

// TestCoordinatorCommandedPowerProperty is the rack-plane safety
// property: under ANY fault schedule, the coordinator's commanded
// allocation (live caps plus reservations for silent nodes) never
// exceeds the breaker budget at any reallocation.
func TestCoordinatorCommandedPowerProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	nodes := []*Node{
		cheapNode(t, "a", 311),
		cheapNode(t, "b", 312),
	}
	const budget = 1900.0
	run := func(seed int64, s0, d0, s1, d1, kindSel uint8) bool {
		co, err := NewCoordinator(nodes, Uniform{}, func(int) float64 { return budget })
		if err != nil {
			t.Fatal(err)
		}
		kinds := []faults.Kind{faults.ServerDropout, faults.MeterDropout, faults.ActuatorLoss}
		co.Faults = faults.New(seed,
			faults.Fault{Kind: faults.ServerDropout, Start: int(s0 % 10), Duration: 1 + int(d0%8), Target: 0},
			faults.Fault{Kind: kinds[int(kindSel)%len(kinds)], Start: int(s1 % 10), Duration: 1 + int(d1%8), Target: faults.TargetAll},
		)
		// Node-local planes (meter, actuator) see the same schedule.
		for _, n := range nodes {
			n.SetFaults(co.Faults)
		}
		for k := 0; k < 14; k++ {
			if err := co.Step(k); err != nil {
				t.Fatal(err)
			}
			if k%co.RackPeriods == 0 && liveCommandedW(co) > commandedBudgetW(co, budget)+1e-6 {
				t.Logf("seed %d faults %s: period %d commanded %g > remaining %g",
					seed, co.Faults, k, liveCommandedW(co), commandedBudgetW(co, budget))
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
