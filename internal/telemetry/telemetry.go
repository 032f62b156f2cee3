// Package telemetry is CapGPU's observability layer: a metrics registry
// with Prometheus text-format exposition, a structured JSONL event
// stream for control-loop lifecycle events, and span-style tracing of
// the control-period phases (sense → condense → decide → actuate →
// verify), so controller overhead itself is measured.
//
// The instrumented packages (core, actuator, cluster, experiments) talk
// to telemetry only through the small Sink interface, and their sink
// fields default to nil — the hot-path cost of disabled telemetry is a
// single nil check per instrumentation point.
//
// Determinism contract: this package is inside the capgpu-lint
// determinism scope. It never reads the wall clock or a global RNG;
// every timestamp is either carried by the emitter (the harness stamps
// events with simulated time) or produced by the Clock injected into
// the Hub. Seeded contexts inject nothing (the zero clock), so the
// seeded-replay golden test produces byte-identical event streams; the
// cmd layer injects a wall clock, which is the only place one exists.
package telemetry

// EventType names one control-loop lifecycle event.
type EventType string

// The event taxonomy. Enter/exit pairs are balanced: every *-enter (and
// node-dead, fault-active) is matched by its closing event, emitted at
// the state transition or synthesized by Hub.Finish at end of run —
// CheckBalance verifies the invariant over a recorded stream.
const (
	EventPeriodStart     EventType = "period-start"
	EventPeriodEnd       EventType = "period-end"
	EventCapViolation    EventType = "cap-violation"
	EventSLOMiss         EventType = "slo-miss"
	EventDegradedEnter   EventType = "degraded-enter"
	EventDegradedExit    EventType = "degraded-exit"
	EventFailSafeEnter   EventType = "failsafe-enter"
	EventFailSafeExit    EventType = "failsafe-exit"
	EventFaultActive     EventType = "fault-active"
	EventFaultCleared    EventType = "fault-cleared"
	EventActuatorDiverge EventType = "actuator-diverged"
	EventNodeDead        EventType = "node-dead"
	EventNodeRecovered   EventType = "node-recovered"
	EventReallocation    EventType = "reallocation"
	EventMPCInfeasible   EventType = "mpc-infeasible"
	EventAdaptFrozen     EventType = "adapt-frozen"
	EventRunEnd          EventType = "run-end"

	// Control-plane lifecycle events (the capgpu-rack daemon). These are
	// point events, not enter/exit pairs: membership transitions are
	// already visible as state (node-dead/node-recovered cover liveness),
	// so CheckBalance imposes no pairing on them.
	EventNodeJoined          EventType = "node-join"
	EventDrainStart          EventType = "drain-start"
	EventNodeReleased        EventType = "node-released"
	EventPolicyApplied       EventType = "policy-applied"
	EventPolicyRejected      EventType = "policy-rejected"
	EventReservationReleased EventType = "reservation-released"
	EventCheckpoint          EventType = "checkpoint"
	EventLoadBurst           EventType = "load-burst"

	// Online alerting lifecycle (the Hub's alert engine, when enabled).
	// Detail carries the rule name; the pair is balanced per (node, rule)
	// and Hub.Finish resolves any alert still firing at end of run.
	EventAlertFiring   EventType = "alert-firing"
	EventAlertResolved EventType = "alert-resolved"
)

// Event is one structured lifecycle record. Device is -1 when the event
// is not device-scoped (0 = CPU, 1.. = GPUs for actuator events; the
// GPU index for SLO misses). Value carries the event's scalar payload:
// Watts over the cap for cap-violation, measured latency for slo-miss,
// reserved Watts for reallocation, consecutive stale periods for
// degraded-enter.
type Event struct {
	TimeS  float64   `json:"time_s"`
	Period int       `json:"period"`
	Type   EventType `json:"type"`
	Node   string    `json:"node,omitempty"`
	Device int       `json:"device"`
	Value  float64   `json:"value,omitempty"`
	Detail string    `json:"detail,omitempty"`
	// Cause is the provenance span ID behind the event (the policy-op
	// span for policy-applied, the reallocation span for reallocation,
	// the death span for node-dead, …). Empty when no tracer is
	// attached, so untraced streams are byte-identical to before.
	Cause string `json:"cause,omitempty"`
}

// PeriodSample is the once-per-control-period snapshot an instrumented
// harness reports. The Hub derives gauges, counters, and histograms
// from it and synthesizes transition events (degraded/fail-safe
// enter+exit, fault activation, cap violation, SLO miss) by diffing
// successive samples per node — so the emitting loop stays free of
// telemetry state.
type PeriodSample struct {
	Node       string
	Controller string
	Period     int
	TimeS      float64 // simulated seconds at period end

	SetpointW  float64
	AvgPowerW  float64 // what the controller was fed
	TruePowerW float64 // breaker-side truth
	EnergyJ    float64 // energy drawn during the period

	CPUFreqGHz  float64
	GPUFreqMHz  []float64
	GPULatencyS []float64
	SLOMiss     []bool

	// GPUPhasePrefill / GPUQueueDepth are the period-average prefill
	// share and admission-queue depth per GPU for LLM workloads; nil on
	// CNN runs, in which case the hub never registers their series (so
	// pre-LLM Prometheus goldens stay byte-identical).
	GPUPhasePrefill []float64
	GPUQueueDepth   []float64

	MeterStale   int
	Degraded     bool
	FailSafe     bool
	Uncontrolled bool

	ActuatorRetries  int
	ActuatorDiverged []bool
	Faults           []string // active injected faults, DSL form

	// Attribution dimensions for the energy ledger. Class is the node's
	// workload class ("" ledgers as "default"); Epoch is the policy epoch
	// the period ran under (0 outside the control-plane daemon).
	Class string
	Epoch int
}

// Sink is the interface instrumented packages emit through. A nil Sink
// means telemetry is disabled; call sites guard with one nil check.
// Implementations must be safe for sequential use from a single control
// loop; the Hub additionally locks so interleaved loops (a rack of
// nodes) can share one hub, each through its own node view (NodeSink).
type Sink interface {
	// Emit records one lifecycle event.
	Emit(e Event)
	// Period records the end-of-period snapshot.
	Period(s PeriodSample)
	// BeginPhase opens a control-period phase span.
	BeginPhase(period int, phase string)
	// EndPhase closes the span and observes its duration (measured by
	// the sink's injected clock) into the per-phase histogram.
	EndPhase(period int, phase string)
}

// NopSink is a Sink that discards everything — for tests that need a
// non-nil sink.
type NopSink struct{}

// Emit implements Sink.
func (NopSink) Emit(Event) {}

// Period implements Sink.
func (NopSink) Period(PeriodSample) {}

// BeginPhase implements Sink.
func (NopSink) BeginPhase(int, string) {}

// EndPhase implements Sink.
func (NopSink) EndPhase(int, string) {}

// Phases of one control period, in execution order. The harness opens
// and closes them around the corresponding loop sections; the Hub keys
// the duration histograms by these names.
const (
	PhaseSense    = "sense"    // tick the plant, sample the meter
	PhaseCondense = "condense" // window average + degradation machine
	PhaseDecide   = "decide"   // controller (or fail-safe) decision
	PhaseActuate  = "actuate"  // modulate + deliver commands
	PhaseVerify   = "verify"   // read-back divergence analysis
)

// Clock supplies monotonic timestamps in seconds for span measurement.
// Seeded packages must not construct one from the wall clock; the cmd
// layer does, which is where controller overhead becomes measurable.
type Clock func() float64
