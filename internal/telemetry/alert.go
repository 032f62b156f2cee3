package telemetry

import "sync"

// The online alerting engine. Rules are deterministic functions of the
// period-sample stream, evaluated at period barriers, so a seeded run
// fires byte-identical alert events at any worker count (samples reach
// the hub in replayed node order; per-node rule state lives in the
// hub's node state). Alerts are lifecycle events: alert-firing opens,
// alert-resolved closes, Detail carries the rule name, and Hub.Finish
// resolves anything still firing so CheckBalance holds across the pair.
//
// Rule catalogue:
//
//	slo-burn        — SLO-miss burn rate over a sliding window of
//	                  periods crossed the firing threshold (clears with
//	                  hysteresis at a lower threshold)
//	cap-sustain     — measured power exceeded the set point (plus
//	                  slack) for N consecutive periods
//	meter-stale     — the node's meter has been blind for N consecutive
//	                  periods
//	budget-headroom — rack-wide true power held above the configured
//	                  fraction of the breaker budget for N consecutive
//	                  periods (rack-scoped: fires on the synthetic
//	                  "rack" node and is evaluated when a period's last
//	                  sample has arrived)
const (
	AlertSLOBurn        = "slo-burn"
	AlertCapSustain     = "cap-sustain"
	AlertMeterStale     = "meter-stale"
	AlertBudgetHeadroom = "budget-headroom"
)

// AlertRackNode is the node label rack-scoped alerts fire under — the
// same synthetic node the control-plane coordinator emits as.
const AlertRackNode = "rack"

// AlertConfig tunes the alert rules. Zero fields take the defaults
// noted on each; pass the zero value for an all-defaults engine.
type AlertConfig struct {
	// SLOBurnWindow is the sliding window length in periods (default 20).
	SLOBurnWindow int
	// SLOBurnFire is the window-average miss fraction at which slo-burn
	// fires (default 0.5 — half the GPU-periods in the window missed).
	SLOBurnFire float64
	// SLOBurnClear is the fraction at which a firing slo-burn resolves
	// (default 0.25; must be ≤ SLOBurnFire — the gap is the hysteresis).
	SLOBurnClear float64
	// CapSustain is the consecutive violating periods before cap-sustain
	// fires (default 3).
	CapSustain int
	// CapSlackFrac is the violation slack for cap-sustain (default: the
	// hub's ViolationSlackFrac, so the rule agrees with the event
	// stream; the soak gate widens it to match the doctor's slack).
	CapSlackFrac float64
	// StaleDwell is the consecutive blind periods before meter-stale
	// fires (default 3).
	StaleDwell int
	// BudgetW is the rack breaker budget for budget-headroom; 0 disables
	// the rule until SetRackBudget installs a budget.
	BudgetW float64
	// BudgetFrac is the fraction of BudgetW above which headroom counts
	// as exhausted (default 0.95).
	BudgetFrac float64
	// BudgetSustain is the consecutive exhausted periods before
	// budget-headroom fires (default 5).
	BudgetSustain int
	// Hook, when set, observes every alert lifecycle event the engine
	// emits, right after the event enters the hub — the provenance
	// tracer's attachment point. It runs under the hub's node-state
	// lock (or the rack accumulator's), so it must be fast and must not
	// call back into the hub.
	Hook func(e Event)
}

// DefaultAlertConfig returns the documented defaults.
func DefaultAlertConfig() AlertConfig {
	return AlertConfig{
		SLOBurnWindow: 20, SLOBurnFire: 0.5, SLOBurnClear: 0.25,
		CapSustain: 3, StaleDwell: 3,
		BudgetFrac: 0.95, BudgetSustain: 5,
	}
}

func (c AlertConfig) resolve(hubSlack float64) AlertConfig {
	d := DefaultAlertConfig()
	if c.SLOBurnWindow <= 0 {
		c.SLOBurnWindow = d.SLOBurnWindow
	}
	if c.SLOBurnFire <= 0 {
		c.SLOBurnFire = d.SLOBurnFire
	}
	if c.SLOBurnClear <= 0 {
		c.SLOBurnClear = d.SLOBurnClear
	}
	if c.SLOBurnClear > c.SLOBurnFire {
		c.SLOBurnClear = c.SLOBurnFire
	}
	if c.CapSustain <= 0 {
		c.CapSustain = d.CapSustain
	}
	if c.CapSlackFrac <= 0 {
		c.CapSlackFrac = hubSlack
	}
	if c.StaleDwell <= 0 {
		c.StaleDwell = d.StaleDwell
	}
	if c.BudgetFrac <= 0 {
		c.BudgetFrac = d.BudgetFrac
	}
	if c.BudgetSustain <= 0 {
		c.BudgetSustain = d.BudgetSustain
	}
	return c
}

// nodeAlertState is one node's rule state, guarded by Hub.mu.
type nodeAlertState struct {
	sloWindow []float64 // per-period miss fractions, circular by period index
	sloSeen   int       // samples folded so far (window warms up)
	sloFiring bool

	capRun    int
	capFiring bool

	staleFiring bool
}

// rackAlertState is the cross-node budget-headroom accumulator. A
// period finalizes when the first sample of a later period arrives —
// in replayed (deterministic) order that is exactly the period barrier.
type rackAlertState struct {
	mu sync.Mutex //lint:lockorder before:eventStream.mu

	budgetW   float64
	curPeriod int
	curTime   float64
	curSumW   float64
	havePrev  bool
	sustain   int
	firing    bool
}

// alertEngine evaluates the rules. Per-node state lives in the hub's
// node state; only the rack accumulator is engine-owned.
type alertEngine struct {
	cfg  AlertConfig
	rack rackAlertState
}

func newAlertEngine(cfg AlertConfig, hubSlack float64) *alertEngine {
	e := &alertEngine{cfg: cfg.resolve(hubSlack)}
	e.rack.budgetW = e.cfg.BudgetW
	return e
}

// emit forwards one alert lifecycle event to the hub and then to the
// configured hook. The hook is a function value, so the hot-path
// analyzer's reachability walk stops here; Event is a concrete struct
// and the call boxes nothing.
func (e *alertEngine) emit(h *Hub, ev Event) {
	h.Emit(ev)
	if e.cfg.Hook != nil {
		e.cfg.Hook(ev)
	}
}

// SetRackBudget installs (or updates) the breaker budget the
// budget-headroom rule divides against. A no-op when alerting is
// disabled.
func (h *Hub) SetRackBudget(w float64) {
	if h.alerts == nil {
		return
	}
	h.alerts.rack.mu.Lock()
	h.alerts.rack.budgetW = w
	h.alerts.rack.mu.Unlock()
}

// AlertsEnabled reports whether the hub runs the alert engine.
func (h *Hub) AlertsEnabled() bool { return h.alerts != nil }

// onPeriod evaluates every rule against one sample. Callers hold
// Hub.mu; rules run in a fixed order so the event stream is
// deterministic.
//
//capgpu:hotpath
func (e *alertEngine) onPeriod(h *Hub, st *nodeState, s PeriodSample) {
	if st.alerts == nil {
		st.alerts = &nodeAlertState{sloWindow: make([]float64, e.cfg.SLOBurnWindow)}
	}
	a := st.alerts

	// slo-burn: sliding-window miss fraction with hysteresis. The window
	// sum is recomputed each period (window lengths are tens of entries)
	// so the rate is an exact function of the retained values — no
	// incremental float drift.
	missFrac := 0.0
	if len(s.SLOMiss) > 0 {
		misses := 0
		for _, m := range s.SLOMiss {
			if m {
				misses++
			}
		}
		missFrac = float64(misses) / float64(len(s.SLOMiss))
	}
	a.sloWindow[s.Period%len(a.sloWindow)] = missFrac
	if a.sloSeen < len(a.sloWindow) {
		a.sloSeen++
	}
	var burn float64
	for _, f := range a.sloWindow {
		burn += f
	}
	burn /= float64(len(a.sloWindow))
	warm := a.sloSeen >= len(a.sloWindow)
	switch {
	case !a.sloFiring && warm && burn >= e.cfg.SLOBurnFire:
		a.sloFiring = true
		e.emit(h, Event{TimeS: s.TimeS, Period: s.Period, Type: EventAlertFiring,
			Node: s.Node, Device: -1, Detail: AlertSLOBurn, Value: burn})
	case a.sloFiring && burn <= e.cfg.SLOBurnClear:
		a.sloFiring = false
		e.emit(h, Event{TimeS: s.TimeS, Period: s.Period, Type: EventAlertResolved,
			Node: s.Node, Device: -1, Detail: AlertSLOBurn, Value: burn})
	}

	// cap-sustain: consecutive measured-power violations.
	violating := s.SetpointW > 0 && s.AvgPowerW > s.SetpointW*(1+e.cfg.CapSlackFrac)
	if violating {
		a.capRun++
	} else {
		a.capRun = 0
	}
	switch {
	case !a.capFiring && a.capRun >= e.cfg.CapSustain:
		a.capFiring = true
		e.emit(h, Event{TimeS: s.TimeS, Period: s.Period, Type: EventAlertFiring,
			Node: s.Node, Device: -1, Detail: AlertCapSustain, Value: float64(a.capRun)})
	case a.capFiring && !violating:
		a.capFiring = false
		e.emit(h, Event{TimeS: s.TimeS, Period: s.Period, Type: EventAlertResolved,
			Node: s.Node, Device: -1, Detail: AlertCapSustain})
	}

	// meter-stale: blind-meter dwell.
	switch {
	case !a.staleFiring && s.MeterStale >= e.cfg.StaleDwell:
		a.staleFiring = true
		e.emit(h, Event{TimeS: s.TimeS, Period: s.Period, Type: EventAlertFiring,
			Node: s.Node, Device: -1, Detail: AlertMeterStale, Value: float64(s.MeterStale)})
	case a.staleFiring && s.MeterStale == 0:
		a.staleFiring = false
		e.emit(h, Event{TimeS: s.TimeS, Period: s.Period, Type: EventAlertResolved,
			Node: s.Node, Device: -1, Detail: AlertMeterStale})
	}

	// budget-headroom: rack-wide accumulation; the previous period
	// finalizes when a later period's first sample arrives.
	e.rack.mu.Lock()
	if e.rack.havePrev && s.Period > e.rack.curPeriod {
		e.finalizeRackLocked(h)
	}
	if !e.rack.havePrev || s.Period != e.rack.curPeriod {
		e.rack.havePrev = true
		e.rack.curPeriod = s.Period
		e.rack.curTime = s.TimeS
		e.rack.curSumW = 0
	}
	e.rack.curSumW += s.TruePowerW
	e.rack.mu.Unlock()
}

// finalizeRackLocked evaluates budget-headroom over the completed
// period. Callers hold rack.mu.
func (e *alertEngine) finalizeRackLocked(h *Hub) {
	r := &e.rack
	exhausted := r.budgetW > 0 && r.curSumW >= r.budgetW*e.cfg.BudgetFrac
	if exhausted {
		r.sustain++
	} else {
		r.sustain = 0
	}
	switch {
	case !r.firing && r.sustain >= e.cfg.BudgetSustain:
		r.firing = true
		e.emit(h, Event{TimeS: r.curTime, Period: r.curPeriod, Type: EventAlertFiring,
			Node: AlertRackNode, Device: -1, Detail: AlertBudgetHeadroom, Value: r.curSumW})
	case r.firing && !exhausted:
		r.firing = false
		e.emit(h, Event{TimeS: r.curTime, Period: r.curPeriod, Type: EventAlertResolved,
			Node: AlertRackNode, Device: -1, Detail: AlertBudgetHeadroom, Value: r.curSumW})
	}
}

// finishNode resolves any per-node rule still firing at end of run.
// Callers hold Hub.mu.
func (e *alertEngine) finishNode(h *Hub, st *nodeState, node string) {
	a := st.alerts
	if a == nil {
		return
	}
	last := st.lastSeen
	if a.sloFiring {
		a.sloFiring = false
		e.emit(h, Event{TimeS: last.TimeS, Period: last.Period, Type: EventAlertResolved,
			Node: node, Device: -1, Detail: AlertSLOBurn})
	}
	if a.capFiring {
		a.capFiring = false
		e.emit(h, Event{TimeS: last.TimeS, Period: last.Period, Type: EventAlertResolved,
			Node: node, Device: -1, Detail: AlertCapSustain})
	}
	if a.staleFiring {
		a.staleFiring = false
		e.emit(h, Event{TimeS: last.TimeS, Period: last.Period, Type: EventAlertResolved,
			Node: node, Device: -1, Detail: AlertMeterStale})
	}
}

// finishRack finalizes the pending rack period and resolves a firing
// budget-headroom alert.
func (e *alertEngine) finishRack(h *Hub) {
	e.rack.mu.Lock()
	defer e.rack.mu.Unlock()
	if e.rack.havePrev {
		e.finalizeRackLocked(h)
	}
	if e.rack.firing {
		e.rack.firing = false
		e.emit(h, Event{TimeS: e.rack.curTime, Period: e.rack.curPeriod, Type: EventAlertResolved,
			Node: AlertRackNode, Device: -1, Detail: AlertBudgetHeadroom})
	}
}

// FiredAlerts scans an event stream for alert firings and returns them
// (in stream order) — the soak gate and doctor cross-check consume
// this.
func FiredAlerts(events []Event) []Event {
	var out []Event
	for _, e := range events {
		if e.Type == EventAlertFiring {
			out = append(out, e)
		}
	}
	return out
}
