package main

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flight"
	"repro/internal/provenance"
	"repro/internal/telemetry"
)

// workload is one benchmark input: a closed loop in which every host
// period steps every node and the next period starts when the previous
// one returns. A run repeats episodes of the workload — build, then
// `periods` control periods — until its time is up.
type workload struct {
	name    string
	why     string
	nodes   int
	workers int
	periods int  // control periods per episode, the set-up period included
	daemon  bool // the workload runs the control-plane daemon
	build   func(seed int64, w workload) (rig, error)
}

// rig is one built episode of a workload.
type rig interface {
	// step runs host period k: one Coordinator.Step or Daemon.Step.
	step(k int) error
	coordinator() *cluster.Coordinator
	// finish closes the output streams after the last period.
	finish() error
	// records returns every node's period records by node name.
	records() map[string][]core.PeriodRecord
	// streams returns the artifact streams, in a fixed order, for the
	// determinism digest (nil for rigs without streams).
	streams() [][]byte
	// artifacts reports the stream volumes of the episode.
	artifacts() artifactCounts
	// check runs the rig's own output checks and reports the failed
	// node-periods with one reason each.
	check() []failure
}

type artifactCounts struct {
	eventBytes, events, flightBytes, traceBytes, spans int64
}

type failure struct {
	nodePeriods int
	reason      string
}

var workloads = []workload{
	{
		name:    "fleet-cnn-1k",
		why:     "1024 CNN nodes on 2 workers: MPC/QP Decide, sim and cluster fan-out dominate; retained records grow the heap",
		nodes:   1024,
		workers: 2,
		periods: 64,
		build:   buildFleet("cnn"),
	},
	{
		name:    "fleet-llm-256",
		why:     "256 LLM-serving nodes on 1 worker: token-level workload steps and about twice the QP iterations per Decide",
		nodes:   256,
		workers: 1,
		periods: 64,
		build:   buildFleet("llm"),
	},
	{
		name:    "daemon-soak",
		why:     "control-plane daemon soak with churn, hub, flight recorders and provenance tracer: the only user of those four layers",
		nodes:   6,
		workers: 1,
		periods: 2160,
		daemon:  true,
		build:   buildDaemon,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// fleetRig is a synthetic fleet under the demand-proportional policy
// at the default per-node budget, with no telemetry, flight or trace.
type fleetRig struct {
	coord *cluster.Coordinator
}

func buildFleet(kind string) func(int64, workload) (rig, error) {
	return func(seed int64, w workload) (rig, error) {
		coord, err := experiments.NewScaleCoordinator(seed, w.nodes, cluster.DemandProportional{}, 0,
			experiments.ClusterOptions{Workers: w.workers, Workload: kind})
		if err != nil {
			return nil, err
		}
		return &fleetRig{coord: coord}, nil
	}
}

func (r *fleetRig) step(k int) error                  { return r.coord.Step(k) }
func (r *fleetRig) coordinator() *cluster.Coordinator { return r.coord }
func (r *fleetRig) finish() error                     { return nil }
func (r *fleetRig) streams() [][]byte                 { return nil }
func (r *fleetRig) artifacts() artifactCounts         { return artifactCounts{} }
func (r *fleetRig) check() []failure                  { return nil }

func (r *fleetRig) records() map[string][]core.PeriodRecord {
	out := make(map[string][]core.PeriodRecord, len(r.coord.Nodes))
	for _, n := range r.coord.Nodes {
		out[n.Name] = n.Records()
	}
	return out
}

// daemonRig is the control-plane daemon in the capgpu-rack -soak
// shape, shortened to the episode: SoakSchedule churn and hot
// reconfigurations, diurnal/bursty load and energy curves over the
// episode, alerts on, a flight recorder per node and the provenance
// tracer. Every stream goes to an in-memory counting writer, and a
// checkpoint is encoded into one every checkpointEvery periods.
type daemonRig struct {
	d        *controlplane.Daemon
	hub      *telemetry.Hub
	tracer   *provenance.Tracer
	events   *countingWriter
	trace    *countingWriter
	ckpt     *countingWriter
	flights  map[string]*countingWriter
	schedOps int
	ckptErr  error
}

const checkpointEvery = 500

func buildDaemon(seed int64, w workload) (rig, error) {
	budget := float64(w.nodes+2) * experiments.DefaultNodeBudgetW
	sched, err := controlplane.SoakSchedule(w.periods, w.nodes, budget)
	if err != nil {
		return nil, err
	}
	ops, err := controlplane.ParseSchedule(sched)
	if err != nil {
		return nil, err
	}
	r := &daemonRig{
		events:   &countingWriter{},
		trace:    &countingWriter{},
		ckpt:     &countingWriter{},
		flights:  map[string]*countingWriter{},
		schedOps: len(ops),
	}
	r.tracer = provenance.New(provenance.Config{JSONL: r.trace})
	cfg := telemetry.Config{
		JSONL: r.events,
		// The soak's alert slack, with firing/resolution hooked into the
		// tracer as capgpu-rack wires it.
		Alerts: &telemetry.AlertConfig{CapSlackFrac: 0.03, Hook: func(e telemetry.Event) {
			r.tracer.OnAlertEvent(e.Detail, e.Node, e.Period, e.Value, e.Type == telemetry.EventAlertFiring)
		}},
	}
	r.hub = telemetry.New(cfg)
	deps := experiments.NewDaemonDeps(seed, r.hub, func(node string) (io.Writer, error) {
		cw := &countingWriter{}
		r.flights[node] = cw
		return cw, nil
	})
	deps.Tracer = r.tracer
	spec := controlplane.Spec{
		Seed: seed, Nodes: w.nodes, BudgetW: budget, Workers: w.workers,
		Schedule: sched,
		Load:     controlplane.LoadSpec{DiurnalAmp: 0.35, DiurnalPeriods: w.periods, BurstProb: 0.1, BurstAmp: 0.8},
		Energy: controlplane.EnergySpec{
			CarbonBase: 400, CarbonAmp: 0.3, PriceBase: 0.08, PriceAmp: 0.5,
			DiurnalPeriods: w.periods,
		},
		CheckpointEvery: checkpointEvery,
	}
	r.d, err = controlplane.New(spec, deps)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// step runs one Daemon.Step and, at a checkpoint boundary, the
// checkpoint write a daemon with a checkpoint path makes inside it.
func (r *daemonRig) step(int) error {
	if err := r.d.Step(); err != nil {
		return err
	}
	if r.d.Period()%checkpointEvery == 0 {
		b, err := r.d.Checkpoint().Encode()
		if err == nil {
			_, err = r.ckpt.Write(b)
		}
		if err != nil && r.ckptErr == nil {
			r.ckptErr = err
		}
	}
	return nil
}

func (r *daemonRig) coordinator() *cluster.Coordinator { return r.d.Coordinator() }

func (r *daemonRig) finish() error {
	if err := r.hub.Finish(); err != nil {
		return fmt.Errorf("event stream: %w", err)
	}
	last := r.d.Period() - 1
	if last < 0 {
		last = 0
	}
	if err := r.tracer.Finish(last); err != nil {
		return fmt.Errorf("trace stream: %w", err)
	}
	return nil
}

func (r *daemonRig) records() map[string][]core.PeriodRecord { return r.d.MemberRecords() }

func (r *daemonRig) streams() [][]byte {
	out := [][]byte{r.events.buf, r.trace.buf, r.ckpt.buf}
	for _, name := range sortedKeys(r.flights) {
		out = append(out, []byte(name), r.flights[name].buf)
	}
	return out
}

func (r *daemonRig) artifacts() artifactCounts {
	a := artifactCounts{
		eventBytes: r.events.bytes(), events: r.events.lines,
		traceBytes: r.trace.bytes(), spans: int64(len(r.tracer.Spans())),
	}
	for _, f := range r.flights {
		a.flightBytes += f.bytes()
	}
	return a
}

// check runs the daemon's own invariants: the budget invariant, every
// scheduled op applied, no sticky stream errors, and every cap change
// in every node's flight stream attributed by the trace.
func (r *daemonRig) check() []failure {
	recs := r.records()
	total := 0
	for _, rs := range recs {
		total += len(rs)
	}
	var out []failure
	if n, detail := r.d.InvariantViolations(); n > 0 {
		out = append(out, failure{n * len(r.d.Coordinator().Nodes), fmt.Sprintf("%d budget-invariant violations: %s", n, detail)})
	}
	applied := 0
	for _, op := range r.d.OpLog() {
		if op.Applied {
			applied++
		}
	}
	if applied != r.schedOps {
		out = append(out, failure{total, fmt.Sprintf("%d of %d scheduled ops applied", applied, r.schedOps)})
	}
	for _, err := range []error{r.d.FlightErr(), r.d.CheckpointErr(), r.ckptErr} {
		if err != nil {
			out = append(out, failure{total, err.Error()})
		}
	}
	tr, err := provenance.LoadTrace(bytes.NewReader(r.trace.buf))
	if err != nil {
		return append(out, failure{total, err.Error()})
	}
	for _, name := range sortedKeys(r.flights) {
		frs, err := flight.ReadRecords(bytes.NewReader(r.flights[name].buf))
		if err != nil {
			out = append(out, failure{len(recs[name]), fmt.Sprintf("flight %s: %v", name, err)})
			continue
		}
		if probs := tr.VerifyAttribution(name, frs, r.tracer.EpsilonW()); len(probs) > 0 {
			out = append(out, failure{len(recs[name]), fmt.Sprintf("%d unattributed cap changes, first: %s", len(probs), probs[0])})
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
