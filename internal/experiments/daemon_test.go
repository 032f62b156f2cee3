package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/flight"
	"repro/internal/provenance"
	"repro/internal/telemetry"
)

// daemonGoldenSpec is the kill/restore equivalence scenario: churn and
// reconfiguration on both sides of the restart period (20), including
// a drain whose ramp straddles it and a crash whose reservation decays
// across it, so replay has to reconstruct every kind of in-flight
// control-plane state.
func daemonGoldenSpec(workers int) controlplane.Spec {
	return controlplane.Spec{
		Seed: 7, Nodes: 3, BudgetW: 6000, RackPeriods: 2, Workers: workers,
		Schedule: "cap@2:n001*900;join@6:light;kill@8:n002;budget@12*5600;" +
			"drain@14:n001;slo@26:n000*0.5;join@30;revive@32:n002;cap@34:n000*1100",
		Load:            controlplane.LoadSpec{DiurnalAmp: 0.3, DiurnalPeriods: 80, BurstProb: 0.15, BurstAmp: 0.6},
		CheckpointEvery: 10,
		ReservationHold: 6,
	}
}

// daemonWorld is one daemon run's observability wiring.
type daemonWorld struct {
	hub     *telemetry.Hub
	events  *bytes.Buffer
	flights map[string]*bytes.Buffer
	traceB  *bytes.Buffer
	tracer  *provenance.Tracer
	deps    controlplane.Deps
}

func newDaemonWorld(seed int64) *daemonWorld {
	w := &daemonWorld{events: &bytes.Buffer{}, flights: map[string]*bytes.Buffer{}, traceB: &bytes.Buffer{}}
	w.hub = telemetry.New(telemetry.Config{JSONL: w.events})
	w.tracer = provenance.New(provenance.Config{JSONL: w.traceB})
	w.deps = NewDaemonDeps(seed, w.hub, func(node string) (io.Writer, error) {
		buf := &bytes.Buffer{}
		w.flights[node] = buf
		return buf, nil
	})
	w.deps.Tracer = w.tracer
	return w
}

// artifacts gathers the file-shaped channels: per-node CSV (live and
// released members alike, in name order), per-node flight JSONL, and
// the Prometheus exposition. The events JSONL is w.events, complete
// once this has called hub.Finish.
func (w *daemonWorld) artifacts(t *testing.T, d *controlplane.Daemon) (csv, flightLog, prom []byte) {
	t.Helper()
	if err := w.hub.Finish(); err != nil {
		t.Fatal(err)
	}
	recs := d.MemberRecords()
	names := make([]string, 0, len(recs))
	for name := range recs {
		names = append(names, name)
	}
	sort.Strings(names)
	var csvBuf bytes.Buffer
	for _, name := range names {
		fmt.Fprintf(&csvBuf, "# node %s\n", name)
		csvBuf.Write(replayTrace(t, recs[name]))
	}
	var flightBuf bytes.Buffer
	for _, name := range names {
		fmt.Fprintf(&flightBuf, "# %s\n", name)
		if buf := w.flights[name]; buf != nil {
			flightBuf.Write(buf.Bytes())
		}
	}
	var promBuf bytes.Buffer
	if err := w.hub.Registry().WritePrometheus(&promBuf); err != nil {
		t.Fatal(err)
	}
	return csvBuf.Bytes(), flightBuf.Bytes(), promBuf.Bytes()
}

// daemonArtifacts runs the golden scenario to 40 periods. With
// restart=true the run is killed at period 20: a checkpoint is taken
// through the wire format, the daemon and all its sinks are discarded,
// and a fresh daemon resumes into fresh sinks — whose artifacts must
// match an uninterrupted run byte for byte.
func daemonArtifacts(t *testing.T, workers int, restart bool) (csv, events, flightLog, prom, traceLog []byte) {
	t.Helper()
	const periods = 40
	spec := daemonGoldenSpec(workers)
	var d *controlplane.Daemon
	var w *daemonWorld
	if restart {
		w1 := newDaemonWorld(spec.Seed)
		d1, err := controlplane.New(spec, w1.deps)
		if err != nil {
			t.Fatal(err)
		}
		if err := d1.RunTo(20); err != nil {
			t.Fatal(err)
		}
		raw, err := d1.Checkpoint().Encode()
		if err != nil {
			t.Fatal(err)
		}
		// The old world dies with the process; restore gets only bytes.
		cp, err := controlplane.DecodeCheckpoint(raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := cp.ValidateHorizon(periods); err != nil {
			t.Fatal(err)
		}
		w = newDaemonWorld(spec.Seed)
		d, err = controlplane.Resume(cp, w.deps)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		var err error
		w = newDaemonWorld(spec.Seed)
		d, err = controlplane.New(spec, w.deps)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := d.RunTo(periods); err != nil {
		t.Fatal(err)
	}
	if err := d.FlightErr(); err != nil {
		t.Fatal(err)
	}
	if n, detail := d.InvariantViolations(); n != 0 {
		t.Fatalf("%d budget-invariant violations: %s", n, detail)
	}
	if err := w.tracer.Finish(periods - 1); err != nil {
		t.Fatal(err)
	}
	csv, flightLog, prom = w.artifacts(t, d)
	return csv, w.events.Bytes(), flightLog, prom, w.traceB.Bytes()
}

// TestDaemonKillRestoreEquivalence is the crash-recovery contract: a
// daemon killed at a checkpoint boundary and restored produces the
// exact bytes of an uninterrupted run — per-node CSV, events JSONL,
// per-node flight JSONL, and Prometheus exposition — at Workers=1 and
// Workers=8.
func TestDaemonKillRestoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			refCSV, refEvents, refFlight, refProm, refTrace := daemonArtifacts(t, workers, false)
			if len(refCSV) == 0 || len(refEvents) == 0 || len(refFlight) == 0 || len(refTrace) == 0 {
				t.Fatal("reference run produced empty artifacts")
			}
			csv, events, flightLog, prom, traceLog := daemonArtifacts(t, workers, true)
			if !bytes.Equal(csv, refCSV) {
				t.Error("per-node CSV diverges from the uninterrupted run")
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
			if !bytes.Equal(traceLog, refTrace) {
				t.Errorf("provenance trace JSONL diverges across kill/restore (%d vs %d bytes)", len(traceLog), len(refTrace))
			}
			// The control-plane lifecycle actually ran: churn events and
			// the policy epoch are visible in telemetry.
			for _, want := range []string{
				string(telemetry.EventNodeJoined), string(telemetry.EventDrainStart),
				string(telemetry.EventNodeReleased), string(telemetry.EventPolicyApplied),
				string(telemetry.EventReservationReleased), string(telemetry.EventCheckpoint),
			} {
				if !bytes.Contains(events, []byte(want)) {
					t.Errorf("events JSONL missing %q", want)
				}
			}
			if !bytes.Contains(prom, []byte("capgpu_policy_epoch")) {
				t.Error("Prometheus exposition missing capgpu_policy_epoch")
			}
			// Workers=1 and Workers=8 share one timeline too — the
			// provenance trace included.
			if workers == 8 {
				w1CSV, w1Events, _, _, w1Trace := daemonArtifacts(t, 1, false)
				if !bytes.Equal(w1CSV, refCSV) || !bytes.Equal(w1Events, refEvents) {
					t.Error("worker counts disagree on the daemon timeline")
				}
				if !bytes.Equal(w1Trace, refTrace) {
					t.Error("worker counts disagree on the provenance trace")
				}
			}
		})
	}
}

// TestDaemonSoak runs the deterministic soak harness: a simulated
// day's diurnal+bursty load over the churn schedule (joins, drains,
// crashes, hot reconfigurations), then gates on the acceptance
// invariants and on capgpu-doctor explaining every incident on every
// node's flight record.
func TestDaemonSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// A compressed day: the full 21600-period day runs in `make soak`;
	// here the diurnal cycle is compressed onto the test horizon so the
	// same trough→peak→trough shape is exercised.
	const periods = 2000
	const nodes = 6
	// Budget sized for the churn peak: up to 9 members (6 initial + 3
	// joins) must keep their floors admissible through the schedule's
	// 8% budget dip.
	const budgetW = 8 * DefaultNodeBudgetW
	sched, err := controlplane.SoakSchedule(periods, nodes, budgetW)
	if err != nil {
		t.Fatal(err)
	}
	spec := controlplane.Spec{
		Seed: 11, Nodes: nodes, BudgetW: budgetW, RackPeriods: 2, Workers: 4,
		Schedule:        sched,
		Load:            controlplane.LoadSpec{DiurnalAmp: 0.35, DiurnalPeriods: periods, BurstProb: 0.1, BurstAmp: 0.8},
		CheckpointEvery: 500,
	}
	w := newDaemonWorld(spec.Seed)
	d, err := controlplane.New(spec, w.deps)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunTo(periods); err != nil {
		t.Fatal(err)
	}
	if err := w.hub.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := w.tracer.Finish(periods - 1); err != nil {
		t.Fatal(err)
	}
	if err := d.FlightErr(); err != nil {
		t.Fatal(err)
	}

	// Acceptance floor: the budget invariant held every period, and the
	// churn/reconfig counts were actually applied, not rejected.
	if n, detail := d.InvariantViolations(); n != 0 {
		t.Fatalf("%d budget-invariant violations: %s", n, detail)
	}
	applied := map[controlplane.OpKind]int{}
	for _, op := range d.OpLog() {
		if op.Applied {
			applied[op.Op.Kind]++
		} else {
			t.Errorf("soak op rejected: %+v", op)
		}
	}
	if applied[controlplane.OpJoin] < 3 || applied[controlplane.OpDrain] < 3 || applied[controlplane.OpKill] < 2 {
		t.Fatalf("churn counts too low: %v", applied)
	}
	if n := applied[controlplane.OpBudget] + applied[controlplane.OpCap] + applied[controlplane.OpSLO]; n < 5 {
		t.Fatalf("only %d hot reconfigurations applied", n)
	}
	if len(d.Released()) < 3 {
		t.Fatalf("only %d nodes drained to release", len(d.Released()))
	}

	// The policy epoch is visible end to end.
	if d.Epoch() < 5 {
		t.Fatalf("policy epoch %d after ≥5 reconfigurations", d.Epoch())
	}
	var promBuf bytes.Buffer
	if err := w.hub.Registry().WritePrometheus(&promBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(promBuf.String(), fmt.Sprintf(`capgpu_policy_epoch{node="rack"} %d`, d.Epoch())) {
		t.Fatal("Prometheus capgpu_policy_epoch does not show the final epoch")
	}

	// Doctor gate: every incident on every member's flight record —
	// live or released — must be explained (exit code 0), with the
	// node's own events (plus rack-scope events) as context.
	events, err := telemetry.ReadEvents(bytes.NewReader(w.events.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	flightRecs := map[string][]flight.DecisionRecord{}
	for name, buf := range w.flights {
		recs, err := flight.ReadRecords(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		flightRecs[name] = recs
	}
	verdict, err := flight.DiagnoseNodes(flight.NodesInput{Flights: flightRecs, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	if verdict.ExitCode() != 0 {
		var b strings.Builder
		if err := verdict.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("doctor: %d unexplained incidents\n%s", verdict.Unexplained, b.String())
	}
	if len(verdict.Nodes) < nodes {
		t.Fatalf("doctor checked only %d members", len(verdict.Nodes))
	}
	// Epoch stamping reached the flight stream.
	for _, nv := range verdict.Nodes {
		recs := flightRecs[nv.Node]
		if last := recs[len(recs)-1]; last.PolicyEpoch == 0 {
			t.Errorf("%s: final flight record carries no policy epoch", nv.Node)
		}
	}

	// Provenance gate: every cap change on every member traces back to
	// a cap-change span whose period, node, and parent agree with the
	// flight record — zero unattributed changes across the whole soak.
	ptr, err := provenance.LoadTrace(bytes.NewReader(w.traceB.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	problems, capChanges := ptr.VerifyFlights(flightRecs, provenance.DefaultEpsilonW)
	for _, p := range problems {
		t.Errorf("unattributed: %s", p)
	}
	if capChanges == 0 {
		t.Fatal("soak produced no cap changes to attribute")
	}
	rows := ptr.Attribution(flightRecs, 4)
	if len(rows) < 3 {
		t.Fatalf("attribution table has only %d root-cause classes: %+v", len(rows), rows)
	}
}
