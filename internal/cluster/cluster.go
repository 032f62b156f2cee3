// Package cluster scales CapGPU from one server to a rack: a slow
// coordinator divides a rack-level power budget among servers, each of
// which runs its own CapGPU loop against its assigned share. This is the
// deployment context the paper's introduction describes — power
// oversubscription behind a shared breaker, in the style of Facebook's
// Dynamo and Google's medium-voltage priority capping [Wu et al. 2016;
// Sakalkar et al. 2020], with CapGPU as the per-server enforcement layer.
//
// The coordinator runs every RackPeriods server control periods (the
// hierarchy's standard fast-inner/slow-outer split [Wang & Chen 2008]).
// Allocation policies:
//
//   - Uniform: equal shares — the strawman.
//   - DemandProportional: each server gets its feasible floor, and the
//     remaining budget is split in proportion to measured demand (GPU
//     utilization), so starved servers bid power away from idle ones.
//   - Priority: strict priority classes; higher classes are filled to
//     their ceilings before lower ones see any discretionary budget.
package cluster

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Node is one managed server with its local control loop.
type Node struct {
	Name     string
	Priority int // larger = more important (Priority policy only)

	Server     *sim.Server
	Controller core.PowerController

	harness  *core.Harness
	assigned float64
	records  []core.PeriodRecord
	minW     float64
	maxW     float64
	// capCeilW is an operator-imposed ceiling on the node's share
	// (0 = none): the control plane uses it for per-node cap policy and
	// for stepping a draining node down before release.
	capCeilW float64
}

// NewNode wires a server and its local controller into a managed node.
func NewNode(name string, s *sim.Server, ctrl core.PowerController, priority int) (*Node, error) {
	if s == nil || ctrl == nil {
		return nil, fmt.Errorf("cluster: node %q needs a server and a controller", name)
	}
	n := &Node{Name: name, Priority: priority, Server: s, Controller: ctrl}
	h, err := core.NewHarness(s, ctrl, func(int) float64 { return n.assigned })
	if err != nil {
		return nil, err
	}
	n.harness = h
	n.minW, n.maxW = s.PowerRange()
	// Achievable floors/ceilings include headroom for noise and the
	// non-unit utilization the range estimate assumes.
	n.minW *= 0.97
	n.assigned = n.minW
	return n, nil
}

// Records returns the node's per-period log.
func (n *Node) Records() []core.PeriodRecord { return n.records }

// Assigned returns the node's current power share.
func (n *Node) Assigned() float64 { return n.assigned }

// CapRangeW returns the node's feasible cap range as the allocator sees
// it: the achievable floor and the ceiling after any operator clamp.
func (n *Node) CapRangeW() (min, max float64) { return n.minW, n.effectiveMaxW() }

// SetCapCeilingW imposes (or, with 0, clears) an operator ceiling on
// the node's allocatable share. Ceilings below the node's floor clamp
// to the floor — a node cannot be driven below its achievable minimum;
// callers wanting less power than that must drain and release the node.
func (n *Node) SetCapCeilingW(w float64) {
	if w != 0 && w < n.minW {
		w = n.minW
	}
	n.capCeilW = w
}

// CapCeilingW returns the operator ceiling (0 = none).
func (n *Node) CapCeilingW() float64 { return n.capCeilW }

// effectiveMaxW is the allocation ceiling after the operator clamp.
func (n *Node) effectiveMaxW() float64 {
	if n.capCeilW > 0 && n.capCeilW < n.maxW {
		return n.capCeilW
	}
	return n.maxW
}

// SetFaults attaches a node-local fault schedule (meter, actuator and
// GPU faults) to the node's control loop. Rack-plane server-dropout
// faults live on the Coordinator instead, which owns the heartbeats.
func (n *Node) SetFaults(s *faults.Schedule) { n.harness.Faults = s }

// Harness exposes the node's control loop for configuration
// (degradation policy, retry budget).
func (n *Node) Harness() *core.Harness { return n.harness }

// Observation is the per-node state the coordinator allocates on.
type Observation struct {
	Name       string
	Priority   int
	PowerW     float64 // last period average
	AssignedW  float64
	MinW, MaxW float64 // feasible power range
	Demand     float64 // 0..1: how much the node would use extra power
}

// Policy decides the per-node budget split.
type Policy interface {
	Name() string
	// Allocate returns one cap per observation; implementations must
	// keep the sum at or below totalW and each cap within [MinW, MaxW]
	// when totalW permits.
	Allocate(totalW float64, obs []Observation) []float64
}

// Uniform splits the budget equally, clamped to each node's range.
type Uniform struct{}

// Name implements Policy.
func (Uniform) Name() string { return "uniform" }

// Allocate implements Policy.
func (Uniform) Allocate(totalW float64, obs []Observation) []float64 {
	out := make([]float64, len(obs))
	if len(obs) == 0 {
		return out
	}
	share := totalW / float64(len(obs))
	spare := 0.0
	for i, o := range obs {
		c := clamp(share, o.MinW, o.MaxW)
		out[i] = c
		spare += share - c
	}
	// Redistribute clamping spillover greedily.
	distributeSpare(out, obs, spare)
	return out
}

// DemandProportional gives every node its floor and splits the remainder
// in proportion to demand.
type DemandProportional struct{}

// Name implements Policy.
func (DemandProportional) Name() string { return "demand-proportional" }

// Allocate implements Policy.
func (DemandProportional) Allocate(totalW float64, obs []Observation) []float64 {
	out := make([]float64, len(obs))
	remaining := totalW
	demandSum := 0.0
	for i, o := range obs {
		out[i] = o.MinW
		remaining -= o.MinW
		demandSum += o.Demand
	}
	if remaining <= 0 {
		return out // budget below the floors: best effort
	}
	if demandSum <= 0 {
		distributeSpare(out, obs, remaining)
		return out
	}
	spare := 0.0
	for i, o := range obs {
		want := remaining * o.Demand / demandSum
		c := clamp(out[i]+want, o.MinW, o.MaxW)
		spare += out[i] + want - c
		out[i] = c
	}
	distributeSpare(out, obs, spare)
	return out
}

// Priority fills nodes in strictly descending priority order, each to
// its ceiling, after granting every node its floor.
type Priority struct{}

// Name implements Policy.
func (Priority) Name() string { return "priority" }

// Allocate implements Policy.
func (Priority) Allocate(totalW float64, obs []Observation) []float64 {
	out := make([]float64, len(obs))
	remaining := totalW
	for i, o := range obs {
		out[i] = o.MinW
		remaining -= o.MinW
	}
	if remaining <= 0 {
		return out
	}
	idx := make([]int, len(obs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return obs[idx[a]].Priority > obs[idx[b]].Priority })
	for _, i := range idx {
		grant := clamp(remaining, 0, obs[i].MaxW-out[i])
		out[i] += grant
		remaining -= grant
		if remaining <= 0 {
			break
		}
	}
	return out
}

// distributeSpare hands leftover budget to nodes with ceiling headroom.
func distributeSpare(out []float64, obs []Observation, spare float64) {
	for i := range out {
		if spare <= 0 {
			return
		}
		room := obs[i].MaxW - out[i]
		if room <= 0 {
			continue
		}
		g := spare
		if g > room {
			g = room
		}
		out[i] += g
		spare -= g
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Coordinator runs the rack.
type Coordinator struct {
	Nodes  []*Node
	Policy Policy
	// BudgetW returns the rack budget at server period k (time-varying
	// budgets model oversubscription events).
	BudgetW func(k int) float64
	// RackPeriods is how many server control periods pass between
	// reallocations (default 2: the outer loop must be slower than the
	// inner ones it commands).
	RackPeriods int
	// Workers bounds the goroutines used to fan per-node stepping out
	// between the coordinator barriers (0 = GOMAXPROCS, 1 = fully
	// sequential on the coordinator goroutine). Node loops are
	// independent between reallocations — each harness owns its own
	// seeded RNGs, simulator, and controller — so any worker count
	// produces the byte-identical record stream, telemetry, and flight
	// log; see the determinism contract in DESIGN.md.
	Workers int

	// Faults carries the rack-plane fault schedule; ServerDropout
	// entries (target = node index) make that node miss heartbeats.
	Faults *faults.Schedule
	// Silenced, when non-nil, is an additional name-keyed heartbeat
	// override: a node for which it reports true misses period k's roll
	// call exactly as a ServerDropout fault would. The control-plane
	// daemon drives churn deaths through it, because names — unlike the
	// fault DSL's node indices — stay stable as membership changes.
	Silenced func(k int, name string) bool
	// HeartbeatMisses is how many consecutive missed heartbeats declare
	// a node dead and release its budget for redistribution (default 2:
	// one miss is a transient, not a failure).
	HeartbeatMisses int
	// ReservationHoldPeriods bounds how long a dead node's guard-banded
	// budget reservation is held: after this many consecutive missed
	// heartbeats the reservation is released (with a
	// reservation-released telemetry event) and the budget returns to
	// the live nodes, so a permanently dead node cannot strand breaker
	// budget forever. Default 16 periods; negative = hold forever (the
	// pre-daemon behavior).
	ReservationHoldPeriods int
	// GuardBandFrac inflates a dead node's last reported power when
	// reserving breaker budget for it (default 0.05), since a node
	// running open-loop can drift above its last report.
	GuardBandFrac float64
	// Telemetry, when non-nil, receives the rack-scope lifecycle events:
	// each reallocation round (with the reserved breaker budget as the
	// value) and, for nodes whose harness has no telemetry, node death,
	// recovery and reservation release stamped with the bare node name.
	// A node with harness telemetry gets those events on its own sink,
	// labeled as its loop telemetry (see nodeEventSink). Per-node loop
	// telemetry is attached on the node harnesses, not here.
	Telemetry telemetry.Sink
	// Tracer, when non-nil, receives the causal-provenance callbacks:
	// death/recovery spans at the roll call, reservation releases, one
	// reallocation span per barrier (consuming whatever causes the
	// control plane staged), a cap-change span per node whose cap
	// moved, and the per-period observation that settles open cap
	// spans. Nil (the default) costs one nil check per site; the
	// interface is defined here (implemented by *provenance.Tracer) so
	// this package stays free of the provenance import and the hot-path
	// analyzer's walk ends at the dispatch.
	Tracer Tracer

	missed      []int     // consecutive missed heartbeats per node
	lastReport  []float64 // last power heard from each node
	haveReport  []bool
	deadPrev    []bool  // death state at the previous roll call
	resReleased []bool  // dead node's reservation released (hold expired)
	reservedW   float64 // breaker budget held back at the last realloc
	// buffers holds the per-node telemetry staging installed for
	// parallel stepping (nil entries for nodes without telemetry);
	// flushed in node-index order at the merge barrier.
	buffers []*telemetry.Buffer
	// detailBuf is the reusable scratch for the per-realloc telemetry
	// detail string (reallocate runs every rack period; fmt would box
	// three operands per call).
	detailBuf []byte
}

// Tracer is the coordinator's view of the provenance layer (see
// internal/provenance, whose *Tracer implements it). String results
// are span IDs; empty means "no span minted" (e.g. a cap move below
// the tracer's epsilon).
type Tracer interface {
	// NodeDead / NodeRecovered open and close a heartbeat-loss window.
	NodeDead(node string, k, missed int) string
	NodeRecovered(node string, k int) string
	// ReservationReleased marks a dead node's budget reservation lapsing.
	ReservationReleased(node string, k int) string
	// BeginRealloc mints the barrier's reallocation span, consuming the
	// staged causes.
	BeginRealloc(k int) string
	// CapChange mints a cap-change span under the current reallocation
	// and returns (span, parent) for the flight-record stamp.
	CapChange(node string, k int, fromW, toW float64) (id, parent string)
	// ObserveNode folds one realized period into the open windows.
	ObserveNode(node string, k int, trueW float64, failSafe, degraded bool, faults []string)
	// EndStep flushes the period's trace lines at the merge barrier.
	EndStep(k int)
}

// NewCoordinator assembles a rack controller.
func NewCoordinator(nodes []*Node, policy Policy, budget func(int) float64) (*Coordinator, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	if policy == nil || budget == nil {
		return nil, fmt.Errorf("cluster: nil policy or budget schedule")
	}
	return &Coordinator{
		Nodes: nodes, Policy: policy, BudgetW: budget, RackPeriods: 2,
		HeartbeatMisses: 2, GuardBandFrac: 0.05, ReservationHoldPeriods: DefaultReservationHold,
		missed:      make([]int, len(nodes)),
		lastReport:  make([]float64, len(nodes)),
		haveReport:  make([]bool, len(nodes)),
		deadPrev:    make([]bool, len(nodes)),
		resReleased: make([]bool, len(nodes)),
	}, nil
}

// DefaultReservationHold is the default ReservationHoldPeriods: how many
// consecutive missed heartbeats a dead node's budget reservation
// survives before it is released back to the live nodes.
const DefaultReservationHold = 16

// AddNode admits a node into the rack at the next Step, splicing fresh
// liveness bookkeeping (and, once buffers are installed, the node's
// telemetry staging buffer) alongside the existing members.
func (c *Coordinator) AddNode(n *Node) error {
	if n == nil {
		return fmt.Errorf("cluster: AddNode: nil node")
	}
	for _, m := range c.Nodes {
		if m.Name == n.Name {
			return fmt.Errorf("cluster: AddNode: node %q already a member", n.Name)
		}
	}
	c.ensureState()
	c.Nodes = append(c.Nodes, n)
	c.missed = append(c.missed, 0)
	c.lastReport = append(c.lastReport, 0)
	c.haveReport = append(c.haveReport, false)
	c.deadPrev = append(c.deadPrev, false)
	c.resReleased = append(c.resReleased, false)
	if c.buffers != nil {
		var b *telemetry.Buffer
		if h := n.harness; h.Telemetry != nil {
			b = telemetry.NewBuffer(h.Telemetry)
			h.SetTelemetry(b, h.TelemetryNode)
		}
		c.buffers = append(c.buffers, b)
	}
	return nil
}

// RemoveNode releases the named node from the rack, splicing its
// bookkeeping out, and returns it (records intact) so the caller can
// archive its history. The last member cannot be removed — a rack with
// no nodes has nothing to coordinate.
func (c *Coordinator) RemoveNode(name string) (*Node, error) {
	i := -1
	for j, n := range c.Nodes {
		if n.Name == name {
			i = j
			break
		}
	}
	if i < 0 {
		return nil, fmt.Errorf("cluster: RemoveNode: no member %q", name)
	}
	if len(c.Nodes) == 1 {
		return nil, fmt.Errorf("cluster: RemoveNode: %q is the last member", name)
	}
	c.ensureState()
	n := c.Nodes[i]
	c.Nodes = append(c.Nodes[:i], c.Nodes[i+1:]...)
	c.missed = append(c.missed[:i], c.missed[i+1:]...)
	c.lastReport = append(c.lastReport[:i], c.lastReport[i+1:]...)
	c.haveReport = append(c.haveReport[:i], c.haveReport[i+1:]...)
	c.deadPrev = append(c.deadPrev[:i], c.deadPrev[i+1:]...)
	c.resReleased = append(c.resReleased[:i], c.resReleased[i+1:]...)
	if i < len(c.buffers) {
		c.buffers = append(c.buffers[:i], c.buffers[i+1:]...)
	}
	return n, nil
}

// NodeDead reports whether node i has exceeded the heartbeat-miss
// threshold and had its budget redistributed.
func (c *Coordinator) NodeDead(i int) bool {
	return i >= 0 && i < len(c.missed) && c.missed[i] >= c.heartbeatMisses()
}

// Liveness returns a copy of the per-node consecutive-miss counters
// (0 = heartbeating).
func (c *Coordinator) Liveness() []int {
	return append([]int(nil), c.missed...)
}

// ReservedW returns the breaker budget held back for silent nodes at
// the most recent reallocation.
func (c *Coordinator) ReservedW() float64 { return c.reservedW }

func (c *Coordinator) heartbeatMisses() int {
	if c.HeartbeatMisses <= 0 {
		return 2
	}
	return c.HeartbeatMisses
}

// observe builds the per-node allocation inputs from the latest records
// for the given node indices.
func (c *Coordinator) observe(idx []int) []Observation {
	obs := make([]Observation, len(idx))
	for j, i := range idx {
		n := c.Nodes[i]
		o := Observation{
			Name:      n.Name,
			Priority:  n.Priority,
			AssignedW: n.assigned,
			MinW:      n.minW,
			MaxW:      n.effectiveMaxW(),
		}
		if len(n.records) > 0 {
			last := n.records[len(n.records)-1]
			o.PowerW = last.AvgPowerW
			// Demand: mean GPU utilization — saturated pipelines (util 1)
			// would convert extra power into throughput.
			s := n.Server.Last()
			sum := 0.0
			for _, u := range s.GPUUtil {
				sum += u
			}
			if len(s.GPUUtil) > 0 {
				o.Demand = sum / float64(len(s.GPUUtil))
			}
		} else {
			o.Demand = 1 // unknown: assume hungry
		}
		obs[j] = o
	}
	return obs
}

// Step advances every node through one server control period with the
// given index, reallocating the rack budget on the RackPeriods schedule.
// Nodes whose heartbeat is missing run open-loop (frequencies frozen,
// power still drawn); nodes missing HeartbeatMisses consecutive beats
// are declared dead, a guard-banded reservation of their last reported
// power is held back from the breaker budget, and the remainder is
// redistributed among the heartbeating nodes. Hierarchical
// coordinators drive racks through this entry point.
//
// The roll call, death/recovery events, and reallocation run on the
// calling goroutine as barriers; the per-node control loops then fan
// out across the Workers pool and their results merge back in
// node-index order, so records, telemetry, and flight output are
// byte-identical at every worker count.
//
//capgpu:hotpath
func (c *Coordinator) Step(k int) error {
	if c.RackPeriods < 1 {
		c.RackPeriods = 1
	}
	c.ensureState()
	// Heartbeat roll call for this period.
	for i, n := range c.Nodes {
		if c.Faults.ServerDownAt(k, i) || (c.Silenced != nil && c.Silenced(k, n.Name)) {
			c.missed[i]++
		} else {
			c.missed[i] = 0
			c.resReleased[i] = false
		}
	}
	for i, n := range c.Nodes {
		dead := c.missed[i] >= c.heartbeatMisses()
		if dead != c.deadPrev[i] {
			cause := ""
			if c.Tracer != nil {
				if dead {
					cause = c.Tracer.NodeDead(n.Name, k, c.missed[i])
				} else {
					cause = c.Tracer.NodeRecovered(n.Name, k)
				}
			}
			c.emitNodeEvent(i, n, k, dead, cause)
		}
		c.deadPrev[i] = dead
	}
	if k%c.RackPeriods == 0 {
		if err := c.reallocate(k); err != nil {
			return err
		}
	}
	// Fan the independent node loops out across the worker pool, then
	// merge in node-index order. Results are staged in pre-sized
	// per-node slots and committed only after every node succeeds, so a
	// mid-period failure appends no partial-period records and flushes
	// no partial-period telemetry.
	w := c.workers()
	if w > 1 {
		c.installBuffers()
	}
	recs := make([]core.PeriodRecord, len(c.Nodes))
	errs := make([]error, len(c.Nodes))
	//lint:ignore hotalloc one fan-out closure per rack step hands work to the fixed pool; the per-node loop inside it is allocation-free
	runIndexed(w, len(c.Nodes), func(i int) {
		if c.missed[i] > 0 {
			// Out of contact: the node's loop is not reachable, but its
			// hardware keeps drawing power at the last applied clocks.
			recs[i], errs[i] = c.Nodes[i].harness.StepUncontrolled(k)
			return
		}
		recs[i], errs[i] = c.Nodes[i].harness.StepPeriod(k)
	})
	for i, n := range c.Nodes {
		if errs[i] != nil {
			for _, b := range c.buffers {
				if b != nil {
					b.Discard()
				}
			}
			return fmt.Errorf("cluster: node %s: %w", n.Name, errs[i])
		}
	}
	for i, n := range c.Nodes {
		if i < len(c.buffers) && c.buffers[i] != nil {
			c.buffers[i].Flush()
		}
		n.records = append(n.records, recs[i])
		if c.missed[i] == 0 {
			c.lastReport[i] = recs[i].AvgPowerW
			c.haveReport[i] = true
		}
		if c.Tracer != nil {
			c.Tracer.ObserveNode(n.Name, k, recs[i].TrueAvgPowerW,
				recs[i].FailSafe, recs[i].Degraded, recs[i].Faults)
		}
	}
	if c.Tracer != nil {
		c.Tracer.EndStep(k)
	}
	return nil
}

// workers resolves the effective fan-out width for this rack.
func (c *Coordinator) workers() int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(c.Nodes) {
		w = len(c.Nodes)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// installBuffers rewires each instrumented node's telemetry through an
// ordered-replay Buffer so parallel stepping emits events and period
// samples in node-index order at the merge barrier, byte-identical to
// the sequential path. Phase spans pass through unbuffered to the
// node's own sink (its hub view keeps the loop's open spans; the zero
// clock used in seeded contexts makes every span 0 s, so the
// exposition is unchanged too). Installation is one-shot and sticky:
// once a rack has stepped with Workers > 1, its telemetry stays
// staged-and-flushed even if Workers later drops to 1 — the output
// bytes are the same either way.
func (c *Coordinator) installBuffers() {
	if c.buffers != nil {
		return
	}
	c.buffers = make([]*telemetry.Buffer, len(c.Nodes))
	for i, n := range c.Nodes {
		h := n.harness
		if h.Telemetry == nil {
			continue
		}
		b := telemetry.NewBuffer(h.Telemetry)
		h.SetTelemetry(b, h.TelemetryNode)
		c.buffers[i] = b
	}
}

// nodeEventSink picks where node n's rack-scope events (death,
// recovery, reservation release) go and the name they carry: the
// node's own harness sink, unbuffered because the coordinator emits
// them serially at the roll call, under the label its loop telemetry
// uses — so the counters join that node's loop metrics even when one
// hub serves several racks; without harness telemetry, the rack sink
// with the bare node name.
func (c *Coordinator) nodeEventSink(n *Node) (telemetry.Sink, string) {
	h := n.harness
	if h.Telemetry == nil {
		return c.Telemetry, n.Name
	}
	if b, ok := h.Telemetry.(*telemetry.Buffer); ok {
		return b.Inner(), h.TelemetryNode
	}
	return h.Telemetry, h.TelemetryNode
}

// emitNodeEvent reports node i's death or recovery.
func (c *Coordinator) emitNodeEvent(i int, n *Node, k int, dead bool, cause string) {
	sink, name := c.nodeEventSink(n)
	if sink == nil {
		return
	}
	e := telemetry.Event{TimeS: n.Server.Now(), Period: k, Node: name, Device: -1, Cause: cause}
	if dead {
		e.Type = telemetry.EventNodeDead
		e.Value = float64(c.missed[i])
	} else {
		e.Type = telemetry.EventNodeRecovered
	}
	sink.Emit(e)
}

// emitReservationReleased reports that node i's dead-node budget
// reservation lapsed after the hold.
func (c *Coordinator) emitReservationReleased(i int, n *Node, k, hold int, cause string) {
	sink, name := c.nodeEventSink(n)
	if sink == nil {
		return
	}
	last := n.maxW
	if c.haveReport[i] {
		last = c.lastReport[i]
	}
	sink.Emit(telemetry.Event{
		TimeS: n.Server.Now(), Period: k, Type: telemetry.EventReservationReleased,
		Node: name, Device: -1, Value: last * (1 + c.GuardBandFrac), Cause: cause,
		//lint:ignore hotalloc fires once per dead-node hold expiry, not per period; formatting cost is acceptable for the event trail
		Detail: fmt.Sprintf("missed=%d hold=%d", c.missed[i], hold),
	})
}

// ensureState sizes the liveness bookkeeping (for coordinators built
// with a struct literal rather than NewCoordinator).
func (c *Coordinator) ensureState() {
	if len(c.missed) != len(c.Nodes) {
		c.missed = make([]int, len(c.Nodes))
		c.lastReport = make([]float64, len(c.Nodes))
		c.haveReport = make([]bool, len(c.Nodes))
		c.deadPrev = make([]bool, len(c.Nodes))
		c.resReleased = make([]bool, len(c.Nodes))
		c.buffers = nil // re-install for the new node set
	}
	if len(c.resReleased) != len(c.Nodes) { // coordinators predating the hold
		c.resReleased = make([]bool, len(c.Nodes))
	}
}

// reallocate splits the breaker budget at period k among the
// heartbeating nodes, reserving guard-banded budget for silent ones.
func (c *Coordinator) reallocate(k int) error {
	live := make([]int, 0, len(c.Nodes))
	reserved := 0.0
	guard := c.GuardBandFrac
	if guard < 0 {
		guard = 0
	}
	hold := c.ReservationHoldPeriods
	if hold == 0 {
		hold = DefaultReservationHold
	}
	for i, n := range c.Nodes {
		switch {
		case c.missed[i] == 0:
			live = append(live, i)
		case c.missed[i] < c.heartbeatMisses():
			// Possibly a transient: assume the node still enforces the
			// cap it was last assigned, and hold that budget for it.
			reserved += n.assigned
		case hold > 0 && c.missed[i] >= hold:
			// The hold expired: a node silent this long is not coming
			// back on its own, and pinning its guard-banded reservation
			// forever would strand breaker budget. Release it — once,
			// with a telemetry event — and let the live nodes have it.
			// (The open-loop node's residual draw is the operator's
			// problem now: the release event is the page.)
			if !c.resReleased[i] {
				c.resReleased[i] = true
				cause := ""
				if c.Tracer != nil {
					cause = c.Tracer.ReservationReleased(n.Name, k)
				}
				c.emitReservationReleased(i, n, k, hold, cause)
			}
		default:
			// Dead: it runs open-loop at its last reported draw; reserve
			// that plus the guard band and redistribute the rest.
			last := n.maxW // never heard from: assume the worst
			if c.haveReport[i] {
				last = c.lastReport[i]
			}
			reserved += last * (1 + guard)
		}
	}
	c.reservedW = reserved
	// The reallocation span consumes every cause staged so far this
	// barrier — policy ops from the control plane, deaths/recoveries
	// from the roll call, the reservation releases just above.
	reallocID := ""
	if c.Tracer != nil {
		reallocID = c.Tracer.BeginRealloc(k)
	}
	if c.Telemetry != nil {
		b := append(c.detailBuf[:0], "policy="...)
		b = append(b, c.Policy.Name()...)
		b = append(b, " live="...)
		b = strconv.AppendInt(b, int64(len(live)), 10)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(len(c.Nodes)), 10)
		c.detailBuf = b
		c.Telemetry.Emit(telemetry.Event{
			TimeS: c.Nodes[0].Server.Now(), Period: k, Type: telemetry.EventReallocation,
			Device: -1, Value: reserved,
			Detail: string(b), Cause: reallocID,
		})
	}
	if len(live) == 0 {
		return nil
	}
	budget := c.BudgetW(k) - reserved
	if budget < 0 {
		budget = 0
	}
	caps := c.Policy.Allocate(budget, c.observe(live))
	if len(caps) != len(live) {
		return fmt.Errorf("cluster: policy %s returned %d caps for %d nodes",
			c.Policy.Name(), len(caps), len(live))
	}
	// The breaker trumps policy floors: if clamping to feasible ranges
	// pushed the sum above the live budget, scale everything back.
	sum := 0.0
	for _, v := range caps {
		sum += v
	}
	if sum > budget && sum > 0 {
		scale := budget / sum
		for i := range caps {
			caps[i] *= scale
		}
	}
	for j, i := range live {
		if c.Tracer != nil {
			if id, parent := c.Tracer.CapChange(c.Nodes[i].Name, k, c.Nodes[i].assigned, caps[j]); id != "" {
				c.Nodes[i].harness.CauseID = id
				c.Nodes[i].harness.CauseParent = parent
			}
		}
		c.Nodes[i].assigned = caps[j]
	}
	return nil
}

// Run advances every node through the given number of server control
// periods, reallocating the rack budget every RackPeriods periods.
func (c *Coordinator) Run(periods int) error {
	for k := 0; k < periods; k++ {
		if err := c.Step(k); err != nil {
			return err
		}
	}
	return nil
}

// TotalPowerSeries returns the rack's per-period total power.
func (c *Coordinator) TotalPowerSeries() []float64 {
	if len(c.Nodes) == 0 {
		return nil
	}
	n := len(c.Nodes[0].records)
	out := make([]float64, n)
	for _, node := range c.Nodes {
		for i := 0; i < n && i < len(node.records); i++ {
			out[i] += node.records[i].AvgPowerW
		}
	}
	return out
}

// AggregateThroughput returns the rack's steady-state GPU throughput
// (img/s summed over all nodes and GPUs, averaged over the last
// len-steadyFrom periods).
func (c *Coordinator) AggregateThroughput(steadyFrom int) float64 {
	total, n := 0.0, 0.0
	for _, node := range c.Nodes {
		if steadyFrom >= len(node.records) {
			continue
		}
		for _, r := range node.records[steadyFrom:] {
			for _, tp := range r.GPUThroughput {
				total += tp
			}
			n++
		}
	}
	if n == 0 {
		return 0
	}
	// Per-period rack throughput: sum over nodes, mean over periods.
	return total / n * float64(len(c.Nodes))
}
