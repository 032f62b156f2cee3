package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Default histogram bucket layouts. Phase buckets span sub-microsecond
// no-op spans up to a full second of controller overhead; power buckets
// cover the evaluation testbed's 600–1400 W envelope; latency buckets
// cover the 50 ms–1 s batch-latency window of the §6.1 workloads.
var (
	DefPhaseBuckets = []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1,
	}
	DefPowerBuckets = []float64{
		600, 650, 700, 750, 800, 850, 900, 950, 1000,
		1050, 1100, 1150, 1200, 1250, 1300, 1350, 1400,
	}
	DefLatencyBuckets = []float64{
		0.05, 0.075, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.75, 1,
	}
)

// Config tunes a Hub. The zero value is a fully deterministic,
// in-memory hub: zero clock, default ring capacity, 1% violation slack,
// a bounded time-series store, no alerting.
type Config struct {
	// Clock measures phase spans. nil means the zero clock (all spans
	// report zero duration) — the deterministic default for seeded runs.
	// The cmd layer injects a wall clock here.
	Clock Clock
	// JSONL, when set, receives every event as one JSON line, in
	// emission order. Write errors are sticky and reported by Err.
	JSONL io.Writer
	// EventCapacity bounds the in-memory event ring the /events endpoint
	// and Events() serve from (default 16384; the JSONL stream is
	// complete regardless).
	EventCapacity int
	// ViolationSlackFrac is the fractional slack above the set point
	// before a period counts as a cap violation (default 0.01 — the same
	// 1% the metrics package summary uses, so the counters agree).
	ViolationSlackFrac float64
	// TrueSlackFrac is the slack for breaker-side (true power)
	// violations (default 0.02, matching the robustness tables).
	TrueSlackFrac float64
	// Store tunes the embedded multi-resolution time-series store. The
	// zero value enables it with default capacities; set Disable to
	// drop per-period series retention entirely.
	Store StoreConfig
	// Alerts, when non-nil, enables the online alerting engine with the
	// given rule thresholds (zero fields take defaults; see
	// DefaultAlertConfig). Nil disables alerting — no alert events are
	// ever emitted, keeping pre-existing event streams byte-identical.
	Alerts *AlertConfig
}

// nodeState tracks one node's last-seen flags so the Hub can synthesize
// enter/exit transition events by diffing successive period samples. It
// also anchors the node's observability state: time-series rings,
// energy-ledger cells, and alert rule state, all guarded by Hub.mu.
type nodeState struct {
	degraded  bool
	failSafe  bool
	faults    []string // sorted active fault names
	lastSeen  PeriodSample
	havePrior bool

	series  map[string]*seriesStore // store: field → multi-resolution rings
	ledger  map[ledgerKey]*ledgerCell
	alerts  *nodeAlertState
	metrics *nodeMetrics
}

// nodeMetrics caches one node's registry series handles so the
// per-period hot path is pure atomic stores/adds — no label building,
// no signature rendering, no registry map traffic. Conditional series
// (degraded, fail-safe, true violations, per-GPU latency) stay nil
// until their first occurrence, preserving registered-on-first-need
// exposition exactly. Rebuilt when the sample's controller label
// changes (rare: a policy swap).
type nodeMetrics struct {
	controller string
	base, node Labels

	periods, energy, retries *series

	degraded, failSafe, uncontrolled, trueViol *series // lazily fetched

	setpoint, measured, truePower, meterStale, cpuFreq *series
	gpuFreq                                            []*series

	powerHist *histState
	latHist   []*histState // lazily installed per GPU on first positive latency

	// phaseMix / queueDepth are lazily registered per GPU the first
	// time a sample carries LLM phase data, so CNN-only runs never grow
	// these series and their expositions stay byte-identical.
	phaseMix   []*series
	queueDepth []*series
}

// nodeMetricsFor returns (building or extending if needed) the node's
// cached handles. Callers hold Hub.mu, so the cache itself
// needs no synchronization; the registry fetches inside are their own
// critical sections.
func (h *Hub) nodeMetricsFor(st *nodeState, s PeriodSample) *nodeMetrics {
	m := st.metrics
	if m == nil || m.controller != s.Controller {
		m = &nodeMetrics{
			controller: s.Controller,
			base:       L("controller", s.Controller, "node", s.Node),
			node:       L("node", s.Node),
		}
		m.periods = h.reg.fetch("capgpu_periods_total", "Control periods completed.", "counter", m.base)
		m.energy = h.reg.fetch("capgpu_energy_joules_total", "Energy drawn, accumulated per period.", "counter", m.node)
		m.retries = h.reg.fetch("capgpu_actuator_retries_total", "Frequency command re-deliveries.", "counter", m.node)
		m.setpoint = h.reg.fetch("capgpu_setpoint_watts", "Power set point for the period.", "gauge", m.base)
		m.measured = h.reg.fetch("capgpu_measured_power_watts", "Meter-side period-average power (what the controller saw).", "gauge", m.base)
		m.truePower = h.reg.fetch("capgpu_true_power_watts", "Breaker-side period-average power.", "gauge", m.base)
		m.meterStale = h.reg.fetch("capgpu_meter_stale_periods", "Consecutive blind periods, 0 when the meter is fresh.", "gauge", m.node)
		m.cpuFreq = h.reg.fetch("capgpu_cpu_frequency_ghz", "Applied CPU frequency.", "gauge", m.node)
		m.powerHist = h.reg.fetch("capgpu_period_power_watts", "Distribution of measured period-average power.", "histogram", m.node).
			ensureHist(DefPowerBuckets, false)
		st.metrics = m
	}
	for i := len(m.gpuFreq); i < len(s.GPUFreqMHz); i++ {
		m.gpuFreq = append(m.gpuFreq, h.reg.fetch("capgpu_gpu_frequency_mhz", "Applied GPU core frequency.", "gauge", m.node.With("gpu", strconv.Itoa(i))))
	}
	for len(m.latHist) < len(s.GPULatencyS) {
		m.latHist = append(m.latHist, nil)
	}
	return m
}

// eventStream is the globally-ordered event channel: the bounded ring
// behind /events and the complete JSONL stream. Deterministic contexts
// replay emissions serially (telemetry.Buffer at the coordinator
// barrier), so the order is fixed there; live concurrent emission
// interleaves in lock-acquisition order.
type eventStream struct {
	mu    sync.Mutex
	jsonl io.Writer
	jerr  error

	// events is a circular buffer once len reaches cap: head indexes the
	// oldest entry and new events overwrite in place, so sustained
	// emission stays O(1) per event instead of shifting the whole slice.
	events []Event
	head   int
	cap    int
	total  int // events ever emitted (ring may have dropped early ones)
}

// Err surfaces the latched first JSONL write error.
func (st *eventStream) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.jerr
}

// Hub is the standard Sink: it owns the metrics registry, the event
// ring, the optional JSONL stream, and the per-node transition state,
// time-series store, energy ledger, and alert engine. Per-node state
// sits behind one mutex; the event ring and JSONL stream stay globally
// ordered behind a second, shorter one; the registry's series values
// are lock-free atomics behind cached handles. All methods lock, so the
// interleaved loops of a rack can share one hub, each through its own
// node view (NodeSink).
type Hub struct {
	reg   *Registry
	clock Clock

	slackFrac     float64
	trueSlackFrac float64

	// mu guards the per-node state (nodes) and the hub's own unlabeled
	// phase spans (self.open).
	mu     sync.Mutex //lint:lockorder before:eventStream.mu
	nodes  map[string]*nodeState
	self   nodeSink
	stream eventStream

	store  storeSettings
	ledger *Ledger
	alerts *alertEngine // nil when alerting is disabled

	// evCounters caches the capgpu_events_total series per event type so
	// the per-event fast path is one map read plus one atomic add — no
	// label building, no signature rendering, no registry lock traffic
	// beyond a shared read lock on a tiny fixed-key map.
	evmu       sync.RWMutex
	evCounters map[EventType]*series
}

// New builds a Hub from the config.
func New(cfg Config) *Hub {
	clock := cfg.Clock
	if clock == nil {
		clock = func() float64 { return 0 }
	}
	capacity := cfg.EventCapacity
	if capacity <= 0 {
		capacity = 16384
	}
	slack := cfg.ViolationSlackFrac
	if slack == 0 {
		slack = 0.01
	}
	trueSlack := cfg.TrueSlackFrac
	if trueSlack == 0 {
		trueSlack = 0.02
	}
	h := &Hub{
		reg:           NewRegistry(),
		clock:         clock,
		slackFrac:     slack,
		trueSlackFrac: trueSlack,
		nodes:         make(map[string]*nodeState),
		store:         cfg.Store.resolve(),
		ledger:        newLedger(),
	}
	h.stream.jsonl = cfg.JSONL
	h.stream.cap = capacity
	h.self.hub = h
	h.evCounters = make(map[EventType]*series)
	if cfg.Alerts != nil {
		h.alerts = newAlertEngine(*cfg.Alerts, slack)
	}
	return h
}

// state returns (creating if needed) the node's state. Callers hold
// h.mu.
func (h *Hub) state(node string) *nodeState {
	st, ok := h.nodes[node]
	if !ok {
		st = &nodeState{}
		h.nodes[node] = st
	}
	return st
}

// Registry exposes the hub's metrics registry (for exposition and for
// reading counters back in tests and end-of-run summaries).
func (h *Hub) Registry() *Registry { return h.reg }

// Ledger exposes the hub's energy-accounting ledger.
func (h *Hub) Ledger() *Ledger { return h.ledger }

// Err returns the first JSONL write error, if any.
func (h *Hub) Err() error { return h.stream.Err() }

// Events returns a copy of the in-memory event ring, oldest first.
func (h *Hub) Events() []Event {
	h.stream.mu.Lock()
	defer h.stream.mu.Unlock()
	out := make([]Event, 0, len(h.stream.events))
	out = append(out, h.stream.events[h.stream.head:]...)
	return append(out, h.stream.events[:h.stream.head]...)
}

// EventsTotal returns how many events were emitted over the hub's
// lifetime (≥ len(Events()) once the ring wraps).
func (h *Hub) EventsTotal() int {
	h.stream.mu.Lock()
	defer h.stream.mu.Unlock()
	return h.stream.total
}

// EventsSnapshot returns the ring (oldest first) together with the
// lifetime total, read atomically under one lock so a consumer can
// compute how many events the ring has dropped without racing an
// emission between two separate calls.
func (h *Hub) EventsSnapshot() ([]Event, int) {
	h.stream.mu.Lock()
	defer h.stream.mu.Unlock()
	out := make([]Event, 0, len(h.stream.events))
	out = append(out, h.stream.events[h.stream.head:]...)
	out = append(out, h.stream.events[:h.stream.head]...)
	return out, h.stream.total
}

// NodeSink returns a view of the hub that stamps the given node name
// onto events and samples that do not already carry one, and times its
// own phase spans. A view belongs to one control loop; core.Harness
// binds one from its node name when handed the bare hub.
func (h *Hub) NodeSink(node string) Sink {
	return &nodeSink{hub: h, node: node}
}

type nodeSink struct {
	hub  *Hub
	node string
	// open holds the view's open phase spans by phase name, so two
	// loops timing the same phase never share a span.
	open map[string]float64
}

func (n *nodeSink) Emit(e Event) {
	if e.Node == "" {
		e.Node = n.node
	}
	n.hub.Emit(e)
}

func (n *nodeSink) Period(s PeriodSample) {
	if s.Node == "" {
		s.Node = n.node
	}
	n.hub.Period(s)
}

func (n *nodeSink) BeginPhase(_ int, phase string) {
	now := n.hub.clock()
	if n.open == nil {
		n.open = make(map[string]float64)
	}
	n.open[phase] = now
}

func (n *nodeSink) EndPhase(_ int, phase string) {
	now := n.hub.clock()
	start, ok := n.open[phase]
	if !ok {
		return // EndPhase without BeginPhase: ignore
	}
	delete(n.open, phase)
	d := now - start
	if d < 0 {
		d = 0
	}
	n.hub.histObserve("capgpu_phase_duration_seconds", "Control-period phase durations (sense, condense, decide, actuate, verify).",
		DefPhaseBuckets, L("phase", phase), d)
}

// Emit implements Sink: the event is logged (ring + JSONL) and folded
// into the derived counters/gauges.
//
//capgpu:hotpath
func (h *Hub) Emit(e Event) {
	h.stream.append(e)
	h.deriveEmit(e)
}

// append pushes one event into the ring and the JSONL stream under the
// stream lock — the only globally-serialized section of the emit path.
func (st *eventStream) append(e Event) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.total++
	if len(st.events) >= st.cap {
		st.events[st.head] = e // overwrite the oldest entry in place
		st.head = (st.head + 1) % len(st.events)
	} else {
		st.events = append(st.events, e)
	}
	if st.jsonl != nil && st.jerr == nil {
		//lint:ignore hotalloc Marshal boxes one event per JSONL append; &e would heap-escape every event and cost more than the box on the sink-less path
		b, err := json.Marshal(e)
		if err == nil {
			b = append(b, '\n')
			_, err = st.jsonl.Write(b)
		}
		if err != nil {
			st.jerr = err
		}
	}
}

// eventTypeCounter returns the cached capgpu_events_total series for
// one event type. The key space is the fixed event-type catalogue, so
// the cache saturates after a handful of misses and the steady path is
// allocation-free.
func (h *Hub) eventTypeCounter(t EventType) *series {
	h.evmu.RLock()
	s := h.evCounters[t]
	h.evmu.RUnlock()
	if s != nil {
		return s
	}
	s = h.reg.fetch("capgpu_events_total", "Telemetry events emitted, by type.",
		"counter", L("type", string(t)))
	h.evmu.Lock()
	h.evCounters[t] = s
	h.evmu.Unlock()
	return s
}

// deriveEmit updates the metrics derived from event types. The registry
// mutators are internally synchronized (shared read lock + atomics), so
// no hub lock is held here. Period-start/-end events — the per-period
// bulk of the stream — fall through the switch and touch nothing beyond
// the cached type counter.
func (h *Hub) deriveEmit(e Event) {
	h.eventTypeCounter(e.Type).add(1)
	if !eventHasDerived(e.Type) {
		return
	}
	node := L("node", e.Node)
	switch e.Type {
	case EventCapViolation:
		h.count("capgpu_cap_violations_total", "Periods whose measured average power exceeded the set point by more than the slack.", node)
	case EventSLOMiss:
		h.count("capgpu_slo_misses_total", "Per-GPU periods whose measured batch latency exceeded the SLO.",
			node.With("gpu", strconv.Itoa(e.Device)))
	case EventDegradedEnter:
		h.count("capgpu_degraded_entries_total", "Transitions into the last-good-value meter fallback.", node)
	case EventFailSafeEnter:
		h.count("capgpu_failsafe_entries_total", "Transitions into the blind fail-safe descent.", node)
	case EventFaultActive:
		h.count("capgpu_fault_activations_total", "Injected fault activations.",
			node.With("fault", e.Detail))
	case EventActuatorDiverge:
		h.count("capgpu_actuator_divergence_total", "Devices still off their commanded frequency after bounded retry.",
			node.With("device", strconv.Itoa(e.Device)))
	case EventNodeDead:
		h.count("capgpu_node_deaths_total", "Nodes declared dead after consecutive heartbeat misses.", node)
	case EventNodeRecovered:
		h.count("capgpu_node_recoveries_total", "Dead nodes that resumed heartbeating.", node)
	case EventReallocation:
		h.count("capgpu_reallocations_total", "Rack budget reallocation rounds.", node)
		h.reg.gaugeSet("capgpu_rack_reserved_watts", "Breaker budget held back for silent nodes at the last reallocation.", node, e.Value)
	case EventMPCInfeasible:
		h.count("capgpu_mpc_infeasible_total", "Periods the MPC subproblem was infeasible and the controller held its point.", node)
	case EventAdaptFrozen:
		h.count("capgpu_adapt_frozen_periods_total", "Periods RLS adaptation was frozen on a stale meter.", node)
	case EventNodeJoined:
		h.count("capgpu_node_joins_total", "Nodes admitted into the rack membership.", node)
	case EventDrainStart:
		h.count("capgpu_node_drains_total", "Nodes that began a graceful drain.", node)
	case EventNodeReleased:
		h.count("capgpu_node_releases_total", "Nodes released from the rack membership after draining.", node)
	case EventPolicyApplied:
		h.count("capgpu_policy_changes_total", "Policy mutations applied at a period barrier.", node)
		h.reg.gaugeSet("capgpu_policy_epoch", "Monotonic policy epoch; bumps on every applied mutation.", node, e.Value)
	case EventPolicyRejected:
		h.count("capgpu_policy_rejections_total", "Policy mutations rejected as invalid or infeasible.", node)
	case EventReservationReleased:
		h.count("capgpu_reservation_releases_total", "Dead-node budget reservations released after the hold expired.", node)
	case EventCheckpoint:
		h.count("capgpu_checkpoints_total", "Control-plane checkpoints written.", node)
	case EventAlertFiring:
		h.count("capgpu_alerts_total", "Alert firings by rule.", node.With("rule", e.Detail))
	}
}

// eventHasDerived reports whether deriveEmit's switch folds this event
// type into a derived metric — the guard that keeps label building off
// the period-start/-end and phase-span fast paths.
func eventHasDerived(t EventType) bool {
	switch t {
	case EventCapViolation, EventSLOMiss, EventDegradedEnter, EventFailSafeEnter,
		EventFaultActive, EventActuatorDiverge, EventNodeDead, EventNodeRecovered,
		EventReallocation, EventMPCInfeasible, EventAdaptFrozen, EventNodeJoined,
		EventDrainStart, EventNodeReleased, EventPolicyApplied, EventPolicyRejected,
		EventReservationReleased, EventCheckpoint, EventAlertFiring:
		return true
	}
	return false
}

// count bumps a derived counter by 1.
func (h *Hub) count(name, help string, labels Labels) {
	h.reg.counterAdd(name, help, labels, 1)
}

// Period implements Sink: gauges and histograms are updated from the
// snapshot, transition events are synthesized by diffing against the
// node's previous sample, the sample is folded into the node's
// time-series rings and energy-ledger cells, and — when alerting is
// enabled — the deterministic alert rules are evaluated.
//
//capgpu:hotpath
func (h *Hub) Period(s PeriodSample) {
	h.mu.Lock()
	defer h.mu.Unlock()

	st := h.state(s.Node)

	// Derived lifecycle events, in a fixed order so the JSONL stream is
	// deterministic: violations, SLO misses, fault diffs, degradation
	// transitions, period end.
	if s.SetpointW > 0 && s.AvgPowerW > s.SetpointW*(1+h.slackFrac) {
		h.Emit(Event{TimeS: s.TimeS, Period: s.Period, Type: EventCapViolation,
			Node: s.Node, Device: -1, Value: s.AvgPowerW - s.SetpointW})
	}
	for i, miss := range s.SLOMiss {
		if miss {
			lat := 0.0
			if i < len(s.GPULatencyS) {
				lat = s.GPULatencyS[i]
			}
			h.Emit(Event{TimeS: s.TimeS, Period: s.Period, Type: EventSLOMiss,
				Node: s.Node, Device: i, Value: lat})
		}
	}
	h.diffFaults(st, s)
	h.transition(st.degraded, s.Degraded, EventDegradedEnter, EventDegradedExit, s, float64(s.MeterStale))
	st.degraded = s.Degraded
	h.transition(st.failSafe, s.FailSafe, EventFailSafeEnter, EventFailSafeExit, s, float64(s.MeterStale))
	st.failSafe = s.FailSafe
	h.Emit(Event{TimeS: s.TimeS, Period: s.Period, Type: EventPeriodEnd,
		Node: s.Node, Device: -1, Value: s.AvgPowerW})

	st.lastSeen = s
	st.havePrior = true

	// Registry updates, all through the node's cached handles: pure
	// atomic adds/stores (or a per-series histogram lock), so concurrent
	// loops never serialize on label rendering or registry maps.
	m := h.nodeMetricsFor(st, s)
	m.periods.add(1)
	if s.Degraded {
		if m.degraded == nil {
			m.degraded = h.reg.fetch("capgpu_degraded_periods_total", "Periods handled by the last-good-value meter fallback.", "counter", m.node)
		}
		m.degraded.add(1)
	}
	if s.FailSafe {
		if m.failSafe == nil {
			m.failSafe = h.reg.fetch("capgpu_failsafe_periods_total", "Periods the harness overrode the controller and descended toward f_min.", "counter", m.node)
		}
		m.failSafe.add(1)
	}
	if s.Uncontrolled {
		if m.uncontrolled == nil {
			m.uncontrolled = h.reg.fetch("capgpu_uncontrolled_periods_total", "Periods run open-loop (node out of rack contact).", "counter", m.node)
		}
		m.uncontrolled.add(1)
	}
	if s.TruePowerW > s.SetpointW*(1+h.trueSlackFrac) && s.SetpointW > 0 {
		if m.trueViol == nil {
			m.trueViol = h.reg.fetch("capgpu_true_cap_violations_total", "Periods whose breaker-side true power exceeded the set point by more than the true slack.", "counter", m.node)
		}
		m.trueViol.add(1)
	}
	m.energy.add(s.EnergyJ)
	m.retries.add(float64(s.ActuatorRetries))

	m.setpoint.store(s.SetpointW)
	m.measured.store(s.AvgPowerW)
	m.truePower.store(s.TruePowerW)
	m.meterStale.store(float64(s.MeterStale))
	m.cpuFreq.store(s.CPUFreqGHz)
	for i, f := range s.GPUFreqMHz {
		m.gpuFreq[i].store(f)
	}

	for i, mix := range s.GPUPhasePrefill {
		for len(m.phaseMix) <= i {
			j := len(m.phaseMix)
			m.phaseMix = append(m.phaseMix, h.reg.fetch("capgpu_phase_prefill_ratio", "Period-average prefill share of busy GPU time (LLM serving).", "gauge", m.node.With("gpu", strconv.Itoa(j))))
		}
		m.phaseMix[i].store(mix)
	}
	for i, depth := range s.GPUQueueDepth {
		for len(m.queueDepth) <= i {
			j := len(m.queueDepth)
			m.queueDepth = append(m.queueDepth, h.reg.fetch("capgpu_queue_depth_requests", "Period-average admission-queue depth (LLM serving).", "gauge", m.node.With("gpu", strconv.Itoa(j))))
		}
		m.queueDepth[i].store(depth)
	}

	m.powerHist.mu.Lock()
	m.powerHist.observe(s.AvgPowerW)
	m.powerHist.mu.Unlock()
	for i, lat := range s.GPULatencyS {
		if lat > 0 {
			hs := m.latHist[i]
			if hs == nil {
				hs = h.reg.fetch("capgpu_gpu_batch_latency_seconds", "Distribution of per-GPU period-average batch latency.", "histogram", m.node.With("gpu", strconv.Itoa(i))).
					ensureHist(DefLatencyBuckets, false)
				m.latHist[i] = hs
			}
			hs.mu.Lock()
			hs.observe(lat)
			hs.mu.Unlock()
		}
	}

	// Observability v2: bounded time-series retention, Wh attribution,
	// and the online alert rules — all per-node state.
	h.store.record(st, s, h.slackFrac)
	h.ledger.record(h, st, s)
	if h.alerts != nil {
		h.alerts.onPeriod(h, st, s)
	}
}

// transition emits an enter or exit event when a boolean node flag
// flips between successive samples.
func (h *Hub) transition(prev, cur bool, enter, exit EventType, s PeriodSample, value float64) {
	switch {
	case cur && !prev:
		h.Emit(Event{TimeS: s.TimeS, Period: s.Period, Type: enter, Node: s.Node, Device: -1, Value: value})
	case !cur && prev:
		h.Emit(Event{TimeS: s.TimeS, Period: s.Period, Type: exit, Node: s.Node, Device: -1})
	}
}

// diffFaults emits fault-active / fault-cleared events for changes in
// the node's active-fault set.
func (h *Hub) diffFaults(st *nodeState, s PeriodSample) {
	cur := append([]string(nil), s.Faults...)
	sort.Strings(cur)
	prev := st.faults
	for _, f := range cur {
		if !containsStr(prev, f) {
			h.Emit(Event{TimeS: s.TimeS, Period: s.Period, Type: EventFaultActive,
				Node: s.Node, Device: -1, Detail: f})
		}
	}
	for _, f := range prev {
		if !containsStr(cur, f) {
			h.Emit(Event{TimeS: s.TimeS, Period: s.Period, Type: EventFaultCleared,
				Node: s.Node, Device: -1, Detail: f})
		}
	}
	st.faults = cur
}

func containsStr(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func (h *Hub) gauge(name, help string, labels Labels, v float64) {
	h.reg.gaugeSet(name, help, labels, v)
}

func (h *Hub) histObserve(name, help string, buckets []float64, labels Labels, v float64) {
	h.reg.observe(name, help, buckets, labels, v)
}

// BeginPhase implements Sink with the hub's own unlabeled spans. A
// node's loop times its spans on its view (NodeSink) instead.
func (h *Hub) BeginPhase(period int, phase string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.self.BeginPhase(period, phase)
}

// EndPhase implements Sink.
func (h *Hub) EndPhase(period int, phase string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.self.EndPhase(period, phase)
}

// nodeNames returns every node name the hub has seen, sorted. Callers
// hold h.mu.
func (h *Hub) nodeNames() []string {
	names := make([]string, 0, len(h.nodes))
	for name := range h.nodes {
		//lint:ignore determinism names are sorted below; output order does not depend on map order
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Finish closes the stream: any node still in a degraded or fail-safe
// state (or with faults still active) gets its matching exit/cleared
// event at its last-seen period, any alert still firing gets its
// resolved event, so enter/exit pairs balance even when a run ends
// mid-fault; a final run-end event carries the lifetime event count.
// Finish reports the first JSONL write error.
func (h *Hub) Finish() error {
	h.mu.Lock()
	for _, name := range h.nodeNames() {
		st := h.nodes[name]
		last := st.lastSeen
		if st.degraded {
			h.Emit(Event{TimeS: last.TimeS, Period: last.Period, Type: EventDegradedExit,
				Node: name, Device: -1, Detail: "run-end"})
			st.degraded = false
		}
		if st.failSafe {
			h.Emit(Event{TimeS: last.TimeS, Period: last.Period, Type: EventFailSafeExit,
				Node: name, Device: -1, Detail: "run-end"})
			st.failSafe = false
		}
		for _, f := range st.faults {
			h.Emit(Event{TimeS: last.TimeS, Period: last.Period, Type: EventFaultCleared,
				Node: name, Device: -1, Detail: f})
		}
		st.faults = nil
		if h.alerts != nil {
			h.alerts.finishNode(h, st, name)
		}
	}
	h.mu.Unlock()
	if h.alerts != nil {
		h.alerts.finishRack(h)
	}
	h.stream.mu.Lock()
	total := h.stream.total
	h.stream.mu.Unlock()
	h.Emit(Event{Type: EventRunEnd, Period: -1, Device: -1, Value: float64(total)})
	return h.Err()
}

// CounterValue reads a derived counter back (0 if the series was never
// touched) — the hook end-of-run summaries and the acceptance tests use
// to compare telemetry against the metrics package.
func (h *Hub) CounterValue(name string, labels Labels) float64 {
	return h.reg.counterValue(name, labels)
}
