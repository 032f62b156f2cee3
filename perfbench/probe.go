package main

import (
	"bytes"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// This file is the traced run's instrumentation. Every probe is a
// decorator over a public interface of the program — telemetry.Sink,
// core.PowerController, cluster.Policy, cluster.Tracer — that forwards
// each call unchanged and times it with the monotonic clock, so a
// traced run produces the same records and stream bytes as an
// untraced one. Samples stay in memory until the run ends.

// countingWriter is an in-memory stream sink: it keeps the bytes for
// the output checks and counts the lines (one event, record or span
// each).
type countingWriter struct {
	buf   []byte
	lines int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	w.lines += int64(bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}

func (w *countingWriter) bytes() int64 { return int64(len(w.buf)) }

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Phase indices of one control period, in the harness's order.
const (
	phSense = iota
	phCondense
	phDecide
	phActuate
	phVerify
	numPhases
)

func phaseIndex(name string) int {
	switch name {
	case telemetry.PhaseSense:
		return phSense
	case telemetry.PhaseCondense:
		return phCondense
	case telemetry.PhaseDecide:
		return phDecide
	case telemetry.PhaseActuate:
		return phActuate
	case telemetry.PhaseVerify:
		return phVerify
	}
	return -1
}

// phaseSink times one node's harness: the existing BeginPhase/EndPhase
// pairs give the phase durations, and the span from the sense phase's
// start to the end of the Period call is one node-period of
// Harness.StepPeriod. When the node has a live telemetry sink (live),
// Emit and Period are timed and counted as the telemetry layer; on a
// node without one they go to a NopSink and are not counted.
type phaseSink struct {
	inner telemetry.Sink
	live  bool

	began   [numPhases]time.Time
	start   time.Time
	phases  [numPhases][]float64 // µs per node-period
	harness []float64            // µs per node-period
	emit    []float64            // µs per Emit call (live sinks only)
	period  []float64            // µs per Period call (live sinks only)
}

func (s *phaseSink) Emit(e telemetry.Event) {
	if !s.live {
		s.inner.Emit(e)
		return
	}
	t := time.Now()
	s.inner.Emit(e)
	s.emit = append(s.emit, micros(time.Since(t)))
}

func (s *phaseSink) Period(ps telemetry.PeriodSample) {
	if s.live {
		t := time.Now()
		s.inner.Period(ps)
		s.period = append(s.period, micros(time.Since(t)))
	} else {
		s.inner.Period(ps)
	}
	if !s.start.IsZero() {
		s.harness = append(s.harness, micros(time.Since(s.start)))
		s.start = time.Time{}
	}
}

func (s *phaseSink) BeginPhase(k int, name string) {
	s.inner.BeginPhase(k, name)
	now := time.Now()
	if i := phaseIndex(name); i >= 0 {
		s.began[i] = now
		if i == phSense {
			s.start = now
		}
	}
}

func (s *phaseSink) EndPhase(k int, name string) {
	if i := phaseIndex(name); i >= 0 {
		s.phases[i] = append(s.phases[i], micros(time.Since(s.began[i])))
	}
	s.inner.EndPhase(k, name)
}

// timedController times CapGPU.Decide and reads the QP and MPC counts
// from the decision's controller trace. When the benchmark switched
// trace building on only to read those counts (strip), it drops the
// trace again so the node's records match the untraced run's.
type timedController struct {
	inner core.PowerController
	strip bool

	decide     []float64 // µs per decision
	iterations []float64 // QP active-set iterations per traced decision
	traced     int       // decisions that carried a controller trace
	infeasible int
	relaxed    int
	sloFloor   int // decisions with at least one SLO-raised floor
	atBound    int // Σ knobs landing on a bound
}

func (c *timedController) Name() string { return c.inner.Name() }

func (c *timedController) Decide(obs core.Observation) core.Decision {
	t := time.Now()
	dec := c.inner.Decide(obs)
	c.decide = append(c.decide, micros(time.Since(t)))
	if tr := dec.Flight; tr != nil {
		c.traced++
		c.iterations = append(c.iterations, float64(tr.SolverIterations))
		if tr.Infeasible {
			c.infeasible++
		}
		if tr.Relaxed {
			c.relaxed++
		}
		floor := false
		for _, k := range tr.Knobs {
			if k.AtLower || k.AtUpper {
				c.atBound++
			}
			floor = floor || k.SLOFloor
		}
		if floor {
			c.sloFloor++
		}
	}
	if c.strip {
		dec.Flight = nil
	}
	return dec
}

// SetTelemetry forwards core.TelemetryAware, so Harness.SetTelemetry
// still reaches the controller through the decorator.
func (c *timedController) SetTelemetry(sink telemetry.Sink, node string) {
	if ta, ok := c.inner.(core.TelemetryAware); ok {
		ta.SetTelemetry(sink, node)
	}
}

// SetFlightRecording forwards core.FlightAware.
func (c *timedController) SetFlightRecording(on bool) {
	if fa, ok := c.inner.(core.FlightAware); ok {
		fa.SetFlightRecording(on)
	}
}

// timedPolicy times cluster.Policy.Allocate on the coordinator.
type timedPolicy struct {
	cluster.Policy
	p *probe
}

func (tp timedPolicy) Allocate(totalW float64, obs []cluster.Observation) []float64 {
	t := time.Now()
	caps := tp.Policy.Allocate(totalW, obs)
	tp.p.allocate = append(tp.p.allocate, micros(time.Since(t)))
	return caps
}

// timedTracer times every cluster.Tracer callback: the provenance
// layer as the coordinator sees it. Each reallocation barrier first
// instruments nodes that joined at that barrier, before they step.
type timedTracer struct {
	inner cluster.Tracer
	p     *probe
	coord *cluster.Coordinator
}

func (tt timedTracer) add(t time.Time) { tt.p.provUS += micros(time.Since(t)) }

func (tt timedTracer) NodeDead(node string, k, missed int) string {
	t := time.Now()
	defer tt.add(t)
	return tt.inner.NodeDead(node, k, missed)
}

func (tt timedTracer) NodeRecovered(node string, k int) string {
	t := time.Now()
	defer tt.add(t)
	return tt.inner.NodeRecovered(node, k)
}

func (tt timedTracer) ReservationReleased(node string, k int) string {
	t := time.Now()
	defer tt.add(t)
	return tt.inner.ReservationReleased(node, k)
}

func (tt timedTracer) BeginRealloc(k int) string {
	for _, n := range tt.coord.Nodes {
		tt.p.instrument(n.Harness())
	}
	t := time.Now()
	defer tt.add(t)
	return tt.inner.BeginRealloc(k)
}

func (tt timedTracer) CapChange(node string, k int, fromW, toW float64) (string, string) {
	t := time.Now()
	defer tt.add(t)
	return tt.inner.CapChange(node, k, fromW, toW)
}

func (tt timedTracer) ObserveNode(node string, k int, trueW float64, failSafe, degraded bool, faults []string) {
	t := time.Now()
	tt.inner.ObserveNode(node, k, trueW, failSafe, degraded, faults)
	tt.add(t)
}

func (tt timedTracer) EndStep(k int) {
	t := time.Now()
	tt.inner.EndStep(k)
	tt.add(t)
}

// probe owns one traced episode's decorators and their samples.
type probe struct {
	harnesses map[*core.Harness]bool
	sinks     []*phaseSink
	ctrls     []*timedController
	allocate  []float64 // µs per Allocate call
	provUS    float64   // Σ µs inside tracer callbacks
}

func newProbe() *probe { return &probe{harnesses: map[*core.Harness]bool{}} }

// instrument wraps one harness's telemetry sink and controller. It runs
// after SetTelemetry/SetFlight, so the wrappers forward to the sinks
// the program attached; a harness is wrapped once.
func (p *probe) instrument(h *core.Harness) {
	if p.harnesses[h] {
		return
	}
	p.harnesses[h] = true
	s := &phaseSink{inner: h.Telemetry, live: h.Telemetry != nil}
	if !s.live {
		s.inner = telemetry.NopSink{}
	}
	c := &timedController{inner: h.Controller}
	if fa, ok := h.Controller.(core.FlightAware); ok && h.Flight == nil {
		fa.SetFlightRecording(true)
		c.strip = true
	}
	h.Controller = c
	h.SetTelemetry(s, h.TelemetryNode)
	p.sinks = append(p.sinks, s)
	p.ctrls = append(p.ctrls, c)
}

// instrumentRig wraps every node, the policy and the tracer of a rig.
func (p *probe) instrumentRig(c *cluster.Coordinator) {
	for _, n := range c.Nodes {
		p.instrument(n.Harness())
	}
	c.Policy = timedPolicy{Policy: c.Policy, p: p}
	if c.Tracer != nil {
		c.Tracer = timedTracer{inner: c.Tracer, p: p, coord: c}
	}
}
