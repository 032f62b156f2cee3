// Package controlplane turns the rack coordinator into a long-running
// control-plane daemon: churn-tolerant membership (join / drain /
// release at reallocation barriers), hot reconfiguration (budget,
// per-node caps, SLO targets — validated, queued, and applied
// atomically at the next barrier without dropping a control period),
// crash recovery (versioned, checksummed checkpoints restored by
// deterministic replay), and a seeded soak harness (open-loop diurnal
// + bursty arrival traces plus a churn/reconfig schedule in the faults
// DSL idiom).
//
// Determinism contract: the package is inside the capgpu-lint
// determinism scope. All external inputs — the churn schedule and
// API-submitted mutations — funnel into a single op log, processed
// only at reallocation barriers; everything else is a pure function of
// the spec and seeds. A daemon killed at any period and restored from
// its checkpoint replays the logged inputs and produces byte-identical
// records, telemetry, flight streams, and Prometheus exposition to an
// uninterrupted run, at any worker count (pinned in
// internal/experiments).
package controlplane

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/provenance"
	"repro/internal/telemetry"
)

// Spec is the daemon's durable configuration: everything needed to
// rebuild the world from scratch. It is embedded verbatim in every
// checkpoint, so restore never depends on out-of-band flags.
type Spec struct {
	Seed int64 `json:"seed"`
	// Nodes is the initial fleet size (classes cycle across it).
	Nodes   int     `json:"nodes"`
	BudgetW float64 `json:"budget_w"`
	// Policy names the allocation policy: uniform,
	// demand-proportional (default), or priority.
	Policy string `json:"policy,omitempty"`
	// RackPeriods is the reallocation cadence (default 2).
	RackPeriods int `json:"rack_periods,omitempty"`
	// Workers is the default node-stepping fan-out; it does not affect
	// output bytes and a restore may override it.
	Workers int `json:"workers,omitempty"`
	// Schedule is the seeded churn/reconfiguration schedule in
	// ParseSchedule DSL form ("" = none).
	Schedule string `json:"schedule,omitempty"`
	// Load shapes open-loop arrival traffic (zero value = steady load).
	Load LoadSpec `json:"load,omitempty"`
	// Energy attaches diurnal carbon/price weight curves to the hub's
	// energy ledger (zero value = unweighted accounting).
	Energy EnergySpec `json:"energy,omitempty"`
	// CheckpointEvery is the checkpoint cadence in periods (0 = none).
	// Checkpoint boundaries are part of the deterministic timeline: the
	// checkpoint telemetry event is emitted whether or not a file sink
	// is attached, so restored runs reproduce the event stream exactly.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// DrainBarriers is how many reallocation barriers a graceful drain
	// ramps across before the node is released (default 4).
	DrainBarriers int `json:"drain_barriers,omitempty"`
	// ReservationHold is how many consecutive missed-heartbeat periods
	// a dead node's power reservation is held before it is released
	// back to the budget (default cluster.DefaultReservationHold;
	// negative holds forever).
	ReservationHold int `json:"reservation_hold,omitempty"`
}

// ClassSpec names one workload class the node factory can build.
type ClassSpec struct {
	Name     string
	Priority int
}

// Deps are the environment-side dependencies injected into the daemon:
// the node factory (internal/experiments provides one that shares
// identified class models across nodes), the class catalogue, and the
// observability sinks. Telemetry and flight attachments are optional.
type Deps struct {
	// NewNode builds one managed node for the named workload class,
	// fully seeded — it must be a pure function of its arguments so
	// replayed joins rebuild identical nodes.
	NewNode func(name, class string, seed int64, priority int) (*cluster.Node, error)
	// Classes is the class catalogue; joins with an empty class cycle
	// through it by node serial.
	Classes []ClassSpec
	// Hub, when non-nil, receives telemetry (per-node sinks labeled
	// with the bare node name; rack-scope events under
	// telemetry.RackNode).
	Hub *telemetry.Hub
	// FlightWriter, when non-nil, opens the JSONL destination for one
	// node's flight stream. It is called once per node construction —
	// including replayed joins, so restore naturally recreates (and
	// thereby truncates) the streams it re-emits.
	FlightWriter func(node string) (io.Writer, error)
	// Tracer, when non-nil, receives the causal-provenance stream: one
	// span per policy op (staged as a cause for the barrier's
	// reallocation), plus the coordinator-side spans (the daemon
	// installs the tracer on its coordinator). Checkpoint restore
	// replays the op log through the same code paths, so a restored
	// daemon re-mints the byte-identical trace into fresh sinks.
	Tracer *provenance.Tracer
}

// ReleasedNode archives a drained-and-released member's history.
type ReleasedNode struct {
	Name    string
	Class   string
	Records []core.PeriodRecord
	Flight  *flight.Recorder
}

// NodeStatus is one member's row in a status snapshot.
type NodeStatus struct {
	Name        string  `json:"name"`
	Class       string  `json:"class"`
	AssignedW   float64 `json:"assigned_w"`
	CapCeilW    float64 `json:"cap_ceil_w,omitempty"`
	SLOLatencyS float64 `json:"slo_latency_s,omitempty"`
	Draining    bool    `json:"draining,omitempty"`
	Dead        bool    `json:"dead,omitempty"`
	Missed      int     `json:"missed_heartbeats,omitempty"`
}

// Status is the daemon's externally visible state, published after
// every period for the policy API's GET endpoints.
type Status struct {
	Period              int          `json:"period"`
	Epoch               int          `json:"epoch"`
	BudgetW             float64      `json:"budget_w"`
	ReservedW           float64      `json:"reserved_w"`
	Members             []NodeStatus `json:"members"`
	Released            []string     `json:"released,omitempty"`
	InvariantViolations int          `json:"invariant_violations"`
}

// member is the control plane's bookkeeping for one managed node.
type member struct {
	name       string
	class      string
	sloLat     float64
	slos       []float64 // handed to the harness SLOs closure
	draining   bool
	drainStepW float64
	causeID    string // drain op span driving the ramp (tracing only)
	rec        *flight.Recorder
}

// pendingOp is an API-submitted mutation awaiting the next barrier.
type pendingOp struct {
	op   Op
	done chan AppliedOp
}

// Daemon is the long-running control plane over one rack coordinator.
// Step/RunTo are single-goroutine (the serve loop); Submit and Status
// are safe to call concurrently from API handlers.
type Daemon struct {
	spec Spec
	deps Deps

	coord  *cluster.Coordinator
	byName map[string]*member

	budgetW float64
	epoch   int
	serial  int
	k       int

	silenced map[string]bool
	schedule []TimedOp
	schedIdx int

	replaying bool
	replay    []AppliedOp
	replayIdx int

	oplog    []AppliedOp
	released []*ReleasedNode
	// curOpID is the provenance span of the op currently inside
	// applyOp, so tryApply's own telemetry (node-join, drain-start)
	// carries the cause; "" outside applyOp or without a tracer.
	curOpID string

	// Allocation snapshot from the last barrier, for the budget
	// invariant Σ(live commanded) ≤ budget − reservations: "live" and
	// "reserved" mean as-of the allocation, so a node recovering
	// mid-cycle stays accounted under its reservation until the next
	// barrier re-admits it.
	allocLive     map[string]bool
	allocBudgetW  float64
	allocReserved float64

	invariantViolations int
	invariantDetail     string

	checkpointPath string
	ckptErr        error

	mu      sync.Mutex
	pending []pendingOp
	status  Status
}

// New builds a daemon from the spec: the initial fleet, the parsed
// churn schedule, and the coordinator wiring.
func New(spec Spec, deps Deps) (*Daemon, error) {
	if spec.Nodes < 1 {
		return nil, fmt.Errorf("controlplane: spec needs at least one initial node")
	}
	if spec.BudgetW <= 0 || math.IsNaN(spec.BudgetW) || math.IsInf(spec.BudgetW, 0) {
		return nil, fmt.Errorf("controlplane: budget %v W must be positive and finite", spec.BudgetW)
	}
	if deps.NewNode == nil || len(deps.Classes) == 0 {
		return nil, fmt.Errorf("controlplane: deps need a node factory and at least one class")
	}
	if spec.RackPeriods < 1 {
		spec.RackPeriods = 2
	}
	if spec.DrainBarriers < 1 {
		spec.DrainBarriers = 4
	}
	policy, err := policyByName(spec.Policy)
	if err != nil {
		return nil, err
	}
	spec.Policy = policy.Name()
	var schedule []TimedOp
	if spec.Schedule != "" {
		schedule, err = ParseSchedule(spec.Schedule)
		if err != nil {
			return nil, err
		}
	}
	d := &Daemon{
		spec:      spec,
		deps:      deps,
		byName:    map[string]*member{},
		budgetW:   spec.BudgetW,
		silenced:  map[string]bool{},
		schedule:  schedule,
		allocLive: map[string]bool{},
	}
	nodes := make([]*cluster.Node, 0, spec.Nodes)
	for i := 0; i < spec.Nodes; i++ {
		cs := deps.Classes[i%len(deps.Classes)]
		node, m, err := d.buildNode(cs.Name)
		if err != nil {
			return nil, err
		}
		d.serial++
		d.byName[m.name] = m
		nodes = append(nodes, node)
	}
	coord, err := cluster.NewCoordinator(nodes, policy, func(int) float64 { return d.budgetW })
	if err != nil {
		return nil, err
	}
	coord.RackPeriods = spec.RackPeriods
	coord.Workers = spec.Workers
	coord.ReservationHoldPeriods = spec.ReservationHold
	coord.Silenced = func(_ int, name string) bool { return d.silenced[name] }
	if deps.Hub != nil {
		coord.Telemetry = deps.Hub.NodeSink(telemetry.RackNode)
		if spec.Energy.Enabled() {
			deps.Hub.SetEnergyWeights(spec.Energy.CarbonCurve(), spec.Energy.PriceCurve())
		}
		deps.Hub.SetRackBudget(d.budgetW)
	}
	if deps.Tracer != nil {
		// Guarded assignment: a nil *provenance.Tracer stored into the
		// interface field would be a non-nil interface and defeat the
		// coordinator's nil checks.
		coord.Tracer = deps.Tracer
	}
	d.coord = coord
	d.publishStatus()
	return d, nil
}

// Resume rebuilds a daemon from a checkpoint by deterministic replay:
// a fresh world from the embedded spec, periods [0, cp.Period) re-run
// with external inputs fed from the op log, then the state digest
// verified. The replayed prefix re-emits its telemetry and flight
// bytes into the (fresh) deps sinks, so the resumed run's artifacts
// are byte-identical to an uninterrupted run's.
func Resume(cp *Checkpoint, deps Deps) (*Daemon, error) {
	d, err := New(cp.Spec, deps)
	if err != nil {
		return nil, err
	}
	d.replaying = true
	d.replay = cp.Ops
	for d.k < cp.Period {
		if err := d.Step(); err != nil {
			return nil, fmt.Errorf("controlplane: replay period %d: %w", d.k, err)
		}
	}
	d.replaying = false
	d.replay = nil
	if d.replayIdx != len(cp.Ops) {
		return nil, fmt.Errorf("%w: replay consumed %d of %d logged ops", ErrCorrupt, d.replayIdx, len(cp.Ops))
	}
	if got := d.digest(); got != cp.StateDigest {
		return nil, fmt.Errorf("%w: state digest mismatch after replay (got %s, want %s)", ErrCorrupt, got, cp.StateDigest)
	}
	return d, nil
}

// policyByName resolves the allocation policy ("" defaults to
// demand-proportional).
func policyByName(name string) (cluster.Policy, error) {
	switch name {
	case "", "demand-proportional":
		return cluster.DemandProportional{}, nil
	case "uniform":
		return cluster.Uniform{}, nil
	case "priority":
		return cluster.Priority{}, nil
	}
	return nil, fmt.Errorf("controlplane: unknown policy %q (want uniform, demand-proportional, priority)", name)
}

// buildNode constructs and wires one managed node for the next serial.
func (d *Daemon) buildNode(class string) (*cluster.Node, *member, error) {
	cs := d.classByName(class)
	if cs == nil {
		return nil, nil, fmt.Errorf("controlplane: unknown class %q", class)
	}
	name := fmt.Sprintf("n%03d", d.serial)
	node, err := d.deps.NewNode(name, class, d.spec.Seed+int64(d.serial)*37, cs.Priority)
	if err != nil {
		return nil, nil, fmt.Errorf("controlplane: build node %s: %w", name, err)
	}
	m := &member{name: name, class: class}
	node.Harness().WorkloadClass = class
	node.Harness().PolicyEpoch = d.epoch
	if d.deps.Hub != nil {
		node.Harness().SetTelemetry(d.deps.Hub, name)
	}
	if d.deps.FlightWriter != nil {
		w, err := d.deps.FlightWriter(name)
		if err != nil {
			return nil, nil, fmt.Errorf("controlplane: flight stream for %s: %w", name, err)
		}
		if w != nil {
			m.rec = flight.NewRecorder(flight.Config{JSONL: w})
			m.rec.SetEpoch(d.epoch)
			node.Harness().SetFlight(m.rec)
		}
	}
	node.Harness().SLOs = func(int) []float64 { return m.slos }
	return node, m, nil
}

func (d *Daemon) classByName(name string) *ClassSpec {
	for i := range d.deps.Classes {
		if d.deps.Classes[i].Name == name {
			return &d.deps.Classes[i]
		}
	}
	return nil
}

// Submit queues one mutation for the next reallocation barrier and
// returns a channel that receives the outcome (applied or rejected
// with a reason) once the barrier processes it. Safe for concurrent
// use from API handlers.
func (d *Daemon) Submit(op Op) <-chan AppliedOp {
	ch := make(chan AppliedOp, 1)
	d.mu.Lock()
	d.pending = append(d.pending, pendingOp{op: op, done: ch})
	d.mu.Unlock()
	return ch
}

// SetCheckpointPath attaches the on-disk checkpoint destination for
// live runs ("" disables writing; the deterministic checkpoint events
// are emitted either way).
func (d *Daemon) SetCheckpointPath(path string) { d.checkpointPath = path }

// Period returns the number of completed control periods.
func (d *Daemon) Period() int { return d.k }

// Epoch returns the current policy epoch.
func (d *Daemon) Epoch() int { return d.epoch }

// Coordinator exposes the underlying rack coordinator (read-only use).
func (d *Daemon) Coordinator() *cluster.Coordinator { return d.coord }

// OpLog returns a copy of the processed-op log.
func (d *Daemon) OpLog() []AppliedOp { return append([]AppliedOp(nil), d.oplog...) }

// Released returns the archive of drained-and-released members.
func (d *Daemon) Released() []*ReleasedNode { return d.released }

// InvariantViolations reports how many periods violated
// Σ(live commanded) ≤ budget − reservations, with the first offender.
func (d *Daemon) InvariantViolations() (int, string) {
	return d.invariantViolations, d.invariantDetail
}

// CheckpointErr returns the sticky checkpoint-write error, if any: a
// failing disk must not take the control loop down, but the failure
// has to surface at shutdown.
func (d *Daemon) CheckpointErr() error { return d.ckptErr }

// FlightErr returns the first sticky flight-stream write error across
// live and released members.
func (d *Daemon) FlightErr() error {
	for _, n := range d.coord.Nodes {
		if m := d.byName[n.Name]; m != nil && m.rec != nil {
			if err := m.rec.Err(); err != nil {
				return fmt.Errorf("node %s: %w", n.Name, err)
			}
		}
	}
	for _, r := range d.released {
		if r.Flight != nil {
			if err := r.Flight.Err(); err != nil {
				return fmt.Errorf("node %s: %w", r.Name, err)
			}
		}
	}
	return nil
}

// MemberRecords returns every member's per-period records, live and
// released alike, keyed by node name.
func (d *Daemon) MemberRecords() map[string][]core.PeriodRecord {
	out := make(map[string][]core.PeriodRecord, len(d.coord.Nodes)+len(d.released))
	for _, n := range d.coord.Nodes {
		out[n.Name] = n.Records()
	}
	for _, r := range d.released {
		out[r.Name] = r.Records
	}
	return out
}

// Status returns the latest published state snapshot.
func (d *Daemon) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.status
}

// RunTo steps the daemon until the given period count is reached.
func (d *Daemon) RunTo(periods int) error {
	for d.k < periods {
		if err := d.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Step advances the daemon by one control period: process mutations at
// the reallocation barrier, drive the load generator, step the rack,
// check the budget invariant, and handle checkpoint boundaries.
func (d *Daemon) Step() error {
	k := d.k
	isBarrier := k%d.coord.RackPeriods == 0
	if isBarrier {
		if err := d.barrier(k); err != nil {
			return err
		}
	}
	if d.spec.Load.Enabled() {
		win := d.spec.Load.BurstWindow()
		for _, n := range d.coord.Nodes {
			n.Server.SetArrivalScale(d.spec.Load.Factor(d.spec.Seed, k, n.Name))
			// Announce each hot burst window at its first period so the
			// doctor can attribute the arrival step's transient overshoot
			// to the injected load. BurstAt is a pure function of
			// (seed, k, name), so replay re-emits identically.
			if d.deps.Hub != nil && k%win == 0 && d.spec.Load.BurstAt(d.spec.Seed, k, n.Name) {
				d.deps.Hub.NodeSink(n.Name).Emit(telemetry.Event{
					TimeS: n.Server.Now(), Period: k, Type: telemetry.EventLoadBurst,
					Value: float64(win),
				})
			}
		}
	}
	if err := d.coord.Step(k); err != nil {
		return err
	}
	if isBarrier {
		d.snapshotAllocation()
	}
	d.k = k + 1
	d.checkInvariant(k)
	if every := d.spec.CheckpointEvery; every > 0 && d.k%every == 0 {
		d.checkpointBoundary(k)
	}
	d.publishStatus()
	return nil
}

// barrier runs the control-plane half of a reallocation barrier:
// advance graceful drains, then process due mutations — from the op
// log when replaying, from the schedule and the API queue when live.
//
//capgpu:barrier
func (d *Daemon) barrier(k int) error {
	if err := d.stepDrains(k); err != nil {
		return err
	}
	if d.replaying {
		// The schedule's effect is already in the op log; keep its
		// consumption pointer in step so live operation resumes at the
		// right entry, but discard the entries themselves.
		for d.schedIdx < len(d.schedule) && d.schedule[d.schedIdx].Period <= k {
			d.schedIdx++
		}
		for d.replayIdx < len(d.replay) && d.replay[d.replayIdx].Period == k {
			logged := d.replay[d.replayIdx]
			d.replayIdx++
			got := d.applyOp(logged.Op, k)
			d.oplog = append(d.oplog, got)
			if got != logged {
				return fmt.Errorf("%w: replay diverged at period %d: %s resolved applied=%v (%s), log says applied=%v (%s)",
					ErrCorrupt, k, logged.Op, got.Applied, got.Reason, logged.Applied, logged.Reason)
			}
		}
		return nil
	}
	for d.schedIdx < len(d.schedule) && d.schedule[d.schedIdx].Period <= k {
		op := d.schedule[d.schedIdx].Op
		d.schedIdx++
		d.oplog = append(d.oplog, d.applyOp(op, k))
	}
	d.mu.Lock()
	pend := d.pending
	d.pending = nil
	d.mu.Unlock()
	for _, p := range pend {
		res := d.applyOp(p.op, k)
		d.oplog = append(d.oplog, res)
		if p.done != nil {
			p.done <- res
		}
	}
	return nil
}

// stepDrains advances every draining member's cap-ceiling ramp one
// barrier and releases members whose ramp reached the floor.
func (d *Daemon) stepDrains(k int) error {
	// Snapshot: releases mutate coord.Nodes.
	nodes := append([]*cluster.Node(nil), d.coord.Nodes...)
	for _, n := range nodes {
		m := d.byName[n.Name]
		if m == nil || !m.draining {
			continue
		}
		if tr := d.deps.Tracer; tr != nil {
			// Each barrier of the ramp is a fresh effect of the drain op:
			// re-stage it so the reallocation that sees the lowered
			// ceiling lists the drain among its causes.
			tr.Stage(m.causeID)
		}
		minW, _ := n.CapRangeW()
		next := n.CapCeilingW() - m.drainStepW
		if next > minW*1.0001 {
			n.SetCapCeilingW(next)
			continue
		}
		if len(d.coord.Nodes) == 1 {
			// Cannot release the last member; hold at the floor until
			// membership allows it (drain admission makes this unreachable
			// in practice).
			n.SetCapCeilingW(minW)
			continue
		}
		removed, err := d.coord.RemoveNode(n.Name)
		if err != nil {
			return err
		}
		d.released = append(d.released, &ReleasedNode{
			Name: n.Name, Class: m.class, Records: removed.Records(), Flight: m.rec,
		})
		delete(d.byName, n.Name)
		delete(d.silenced, n.Name)
		delete(d.allocLive, n.Name)
		releaseCause := ""
		if tr := d.deps.Tracer; tr != nil {
			releaseCause = tr.NodeReleased(n.Name, k, m.causeID)
			tr.Stage(releaseCause)
		}
		if d.deps.Hub != nil {
			d.deps.Hub.NodeSink(n.Name).Emit(telemetry.Event{
				TimeS: n.Server.Now(), Period: k, Type: telemetry.EventNodeReleased,
				Device: -1, Value: n.Assigned(),
				Detail: fmt.Sprintf("class=%s periods=%d", m.class, len(removed.Records())),
				Cause:  releaseCause,
			})
		}
	}
	return nil
}

// applyOp validates and applies one mutation at barrier period k,
// emitting the matching telemetry and returning the op-log entry.
func (d *Daemon) applyOp(op Op, k int) AppliedOp {
	res := AppliedOp{Period: k, Op: op}
	if tr := d.deps.Tracer; tr != nil {
		d.curOpID = tr.BeginPolicyOp(string(op.Kind), k, op.Node, op.String())
	}
	applied, reason, err := d.tryApply(op, k)
	if err != nil {
		// Environment failure (factory, flight sink): surface as a
		// rejection so the log stays deterministic, but remember it.
		applied, reason = false, err.Error()
	}
	res.Applied = applied
	res.Reason = reason
	if tr := d.deps.Tracer; tr != nil {
		tr.EndPolicyOp(d.curOpID, k, applied)
		if applied {
			// Stage the op as a cause for this barrier's reallocation —
			// except kill/revive, whose effect reaches the allocator only
			// through the death/recovery the roll call will observe; they
			// parent those spans instead.
			switch op.Kind {
			case OpKill:
				tr.RegisterKill(op.Node, d.curOpID)
			case OpRevive:
				tr.RegisterRevive(op.Node, d.curOpID)
			default:
				tr.Stage(d.curOpID)
			}
			if op.Kind == OpDrain {
				if m := d.byName[op.Node]; m != nil {
					m.causeID = d.curOpID // the ramp re-stages it each barrier
				}
			}
		}
	}
	cause := d.curOpID
	d.curOpID = ""
	if d.deps.Hub == nil {
		return res
	}
	sink := d.deps.Hub.NodeSink(telemetry.RackNode)
	switch {
	case !applied:
		sink.Emit(telemetry.Event{
			TimeS: d.nowS(), Period: k, Type: telemetry.EventPolicyRejected,
			Device: -1, Detail: op.String() + ": " + reason, Cause: cause,
		})
	case op.Kind == OpBudget || op.Kind == OpCap || op.Kind == OpSLO:
		sink.Emit(telemetry.Event{
			TimeS: d.nowS(), Period: k, Type: telemetry.EventPolicyApplied,
			Device: -1, Value: float64(d.epoch), Detail: op.String(), Cause: cause,
		})
	}
	return res
}

// tryApply is the validation and state-mutation core of applyOp. It
// returns applied=false with a human-readable reason for infeasible or
// malformed requests; err is reserved for environment failures.
func (d *Daemon) tryApply(op Op, k int) (applied bool, reason string, err error) {
	switch op.Kind {
	case OpJoin:
		class := op.Class
		if class == "" {
			class = d.deps.Classes[d.serial%len(d.deps.Classes)].Name
		}
		if d.classByName(class) == nil {
			return false, fmt.Sprintf("unknown class %q", class), nil
		}
		node, m, err := d.buildNode(class)
		if err != nil {
			return false, "", err
		}
		// Admission: the rack must keep every member's floor feasible
		// under the current budget net of dead-node reservations.
		newMin, _ := node.CapRangeW()
		floors := newMin
		for _, n := range d.coord.Nodes {
			mw, _ := n.CapRangeW()
			floors += mw
		}
		if headroom := d.budgetW - d.coord.ReservedW(); floors > headroom {
			return false, fmt.Sprintf("admission: member floors %.0f W exceed budget headroom %.0f W", floors, headroom), nil
		}
		if err := d.coord.AddNode(node); err != nil {
			return false, "", err
		}
		d.serial++
		d.byName[m.name] = m
		if m.rec != nil {
			m.rec.SetEpoch(d.epoch)
		}
		if d.deps.Hub != nil {
			d.deps.Hub.NodeSink(node.Name).Emit(telemetry.Event{
				TimeS: node.Server.Now(), Period: k, Type: telemetry.EventNodeJoined,
				Device: -1, Value: newMin, Detail: "class=" + m.class, Cause: d.curOpID,
			})
		}
		return true, "", nil

	case OpDrain:
		m := d.byName[op.Node]
		if m == nil {
			return false, fmt.Sprintf("no member %q", op.Node), nil
		}
		if m.draining {
			return false, fmt.Sprintf("%s is already draining", op.Node), nil
		}
		remaining := 0
		for _, n := range d.coord.Nodes {
			if mm := d.byName[n.Name]; mm != nil && !mm.draining {
				remaining++
			}
		}
		if remaining <= 1 {
			return false, fmt.Sprintf("draining %s would leave the rack empty", op.Node), nil
		}
		node := d.nodeByName(op.Node)
		minW, _ := node.CapRangeW()
		start := node.Assigned()
		if start < minW {
			start = minW
		}
		m.draining = true
		m.drainStepW = (start - minW) / float64(d.spec.DrainBarriers)
		if m.drainStepW <= 0 {
			m.drainStepW = 1 // already at the floor: still ramp to release
		}
		node.SetCapCeilingW(start)
		if d.deps.Hub != nil {
			d.deps.Hub.NodeSink(op.Node).Emit(telemetry.Event{
				TimeS: node.Server.Now(), Period: k, Type: telemetry.EventDrainStart,
				Device: -1, Value: start,
				Detail: fmt.Sprintf("floor=%.0fW barriers=%d", minW, d.spec.DrainBarriers),
				Cause:  d.curOpID,
			})
		}
		return true, "", nil

	case OpKill:
		if d.byName[op.Node] == nil {
			return false, fmt.Sprintf("no member %q", op.Node), nil
		}
		if d.silenced[op.Node] {
			return false, fmt.Sprintf("%s is already down", op.Node), nil
		}
		d.silenced[op.Node] = true
		return true, "", nil

	case OpRevive:
		if !d.silenced[op.Node] {
			return false, fmt.Sprintf("%s is not down", op.Node), nil
		}
		delete(d.silenced, op.Node)
		return true, "", nil

	case OpBudget:
		v := op.Value
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return false, fmt.Sprintf("budget %v W must be positive and finite", v), nil
		}
		floors := 0.0
		for _, n := range d.coord.Nodes {
			mw, _ := n.CapRangeW()
			floors += mw
		}
		if floors > v {
			return false, fmt.Sprintf("infeasible: member floors %.0f W exceed requested budget %.0f W", floors, v), nil
		}
		d.budgetW = v
		if d.deps.Hub != nil {
			d.deps.Hub.SetRackBudget(v)
		}
		d.bumpEpoch()
		return true, "", nil

	case OpCap:
		m := d.byName[op.Node]
		if m == nil {
			return false, fmt.Sprintf("no member %q", op.Node), nil
		}
		if m.draining {
			return false, fmt.Sprintf("%s is draining; its ceiling belongs to the drain ramp", op.Node), nil
		}
		v := op.Value
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return false, fmt.Sprintf("cap %v W must be non-negative and finite", v), nil
		}
		d.nodeByName(op.Node).SetCapCeilingW(v)
		d.bumpEpoch()
		return true, "", nil

	case OpSLO:
		m := d.byName[op.Node]
		if m == nil {
			return false, fmt.Sprintf("no member %q", op.Node), nil
		}
		v := op.Value
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return false, fmt.Sprintf("SLO %v s must be non-negative and finite", v), nil
		}
		m.sloLat = v
		if v == 0 {
			m.slos = nil
		} else {
			node := d.nodeByName(op.Node)
			slos := make([]float64, node.Server.NumGPUs())
			for i := range slos {
				slos[i] = v
			}
			m.slos = slos
		}
		d.bumpEpoch()
		return true, "", nil
	}
	return false, fmt.Sprintf("unknown op kind %q", op.Kind), nil
}

// bumpEpoch advances the policy epoch and restamps every live flight
// recorder and harness, so subsequent decision records and period
// samples carry the new epoch.
func (d *Daemon) bumpEpoch() {
	d.epoch++
	for _, n := range d.coord.Nodes {
		n.Harness().PolicyEpoch = d.epoch
		if m := d.byName[n.Name]; m != nil && m.rec != nil {
			m.rec.SetEpoch(d.epoch)
		}
	}
}

func (d *Daemon) nodeByName(name string) *cluster.Node {
	for _, n := range d.coord.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// nowS is the rack's simulated time (the first member's clock).
func (d *Daemon) nowS() float64 {
	if len(d.coord.Nodes) == 0 {
		return 0
	}
	return d.coord.Nodes[0].Server.Now()
}

// snapshotAllocation records who the barrier allocated to and under
// what budget, for the per-period invariant check.
func (d *Daemon) snapshotAllocation() {
	d.allocLive = make(map[string]bool, len(d.coord.Nodes))
	liv := d.coord.Liveness()
	for i, n := range d.coord.Nodes {
		if liv[i] == 0 {
			d.allocLive[n.Name] = true
		}
	}
	d.allocBudgetW = d.budgetW
	d.allocReserved = d.coord.ReservedW()
}

// checkInvariant verifies Σ(live commanded) ≤ budget − reservations
// for the period just stepped, against the last barrier's allocation.
func (d *Daemon) checkInvariant(k int) {
	sum := 0.0
	for _, n := range d.coord.Nodes {
		if d.allocLive[n.Name] {
			sum += n.Assigned()
		}
	}
	limit := d.allocBudgetW - d.allocReserved
	if sum > limit+1e-6 {
		d.invariantViolations++
		if d.invariantDetail == "" {
			d.invariantDetail = fmt.Sprintf("period %d: Σ live commanded %.3f W > budget %.3f W − reserved %.3f W",
				k, sum, d.allocBudgetW, d.allocReserved)
		}
	}
}

// checkpointBoundary marks a deterministic checkpoint boundary after
// period k: the telemetry event always fires (replay re-emits it), the
// file write only on live runs with a path attached.
func (d *Daemon) checkpointBoundary(k int) {
	if d.deps.Hub != nil {
		d.deps.Hub.NodeSink(telemetry.RackNode).Emit(telemetry.Event{
			TimeS: d.nowS(), Period: k, Type: telemetry.EventCheckpoint,
			Device: -1, Value: float64(d.k),
			Detail: fmt.Sprintf("epoch=%d members=%d", d.epoch, len(d.coord.Nodes)),
		})
	}
	if d.replaying || d.checkpointPath == "" {
		return
	}
	if err := SaveCheckpoint(d.checkpointPath, d.Checkpoint()); err != nil && d.ckptErr == nil {
		d.ckptErr = err
	}
}

// Checkpoint captures the daemon's durable state: the spec, the op
// log, the completed-period count, and a digest of the observable
// state for restore verification.
func (d *Daemon) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Version:     CheckpointVersion,
		Spec:        d.spec,
		Period:      d.k,
		Epoch:       d.epoch,
		Serial:      d.serial,
		BudgetW:     d.budgetW,
		Ops:         append([]AppliedOp(nil), d.oplog...),
		ReservedW:   d.coord.ReservedW(),
		StateDigest: d.digest(),
	}
	for _, n := range d.coord.Nodes {
		m := d.byName[n.Name]
		cp.Members = append(cp.Members, MemberState{
			Name:        n.Name,
			Class:       m.class,
			AssignedW:   n.Assigned(),
			CapCeilW:    n.CapCeilingW(),
			SLOLatencyS: m.sloLat,
			Draining:    m.draining,
			Silenced:    d.silenced[n.Name],
			Periods:     len(n.Records()),
		})
	}
	return cp
}

// digest folds the observable daemon state into a hex FNV-1a digest:
// enough surface (assignments, ceilings, liveness, trajectory tails)
// that a divergent replay cannot silently pass restore.
func (d *Daemon) digest() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "k=%d budget=%.9g epoch=%d serial=%d reserved=%.9g viol=%d;",
		d.k, d.budgetW, d.epoch, d.serial, d.coord.ReservedW(), d.invariantViolations)
	liv := d.coord.Liveness()
	for i, n := range d.coord.Nodes {
		m := d.byName[n.Name]
		var lastAvg, lastMax, lastSet float64
		recs := n.Records()
		if len(recs) > 0 {
			last := recs[len(recs)-1]
			lastAvg, lastMax, lastSet = last.AvgPowerW, last.MaxPowerW, last.SetpointW
		}
		fmt.Fprintf(&sb, "%s|%s|%.9g|%.9g|%t|%.9g|%d|%d|%.9g|%.9g|%.9g;",
			n.Name, m.class, n.Assigned(), n.CapCeilingW(), m.draining, m.sloLat,
			liv[i], len(recs), lastAvg, lastMax, lastSet)
	}
	for _, r := range d.released {
		fmt.Fprintf(&sb, "rel:%s|%d;", r.Name, len(r.Records))
	}
	var down []string
	for name := range d.silenced {
		//lint:ignore determinism keys are sorted immediately below; output order does not depend on map order
		down = append(down, name)
	}
	sort.Strings(down)
	fmt.Fprintf(&sb, "down:%s", strings.Join(down, ","))
	h := fnv.New64a()
	_, _ = io.WriteString(h, sb.String())
	return fmt.Sprintf("%016x", h.Sum64())
}

// publishStatus refreshes the snapshot the API serves.
func (d *Daemon) publishStatus() {
	st := Status{
		Period:              d.k,
		Epoch:               d.epoch,
		BudgetW:             d.budgetW,
		ReservedW:           d.coord.ReservedW(),
		InvariantViolations: d.invariantViolations,
	}
	liv := d.coord.Liveness()
	for i, n := range d.coord.Nodes {
		m := d.byName[n.Name]
		st.Members = append(st.Members, NodeStatus{
			Name:        n.Name,
			Class:       m.class,
			AssignedW:   n.Assigned(),
			CapCeilW:    n.CapCeilingW(),
			SLOLatencyS: m.sloLat,
			Draining:    m.draining,
			Dead:        d.coord.NodeDead(i),
			Missed:      liv[i],
		})
	}
	for _, r := range d.released {
		st.Released = append(st.Released, r.Name)
	}
	d.mu.Lock()
	d.status = st
	d.mu.Unlock()
}
