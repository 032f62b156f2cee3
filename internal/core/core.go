// Package core is the CapGPU framework (§3–§4): the control-loop harness
// that wires the power monitor, per-device throughput monitors,
// frequency modulators and a pluggable power controller around a GPU
// server, plus the CapGPU controller itself — the MIMO MPC with
// throughput-driven weight assignment and SLO constraints.
//
// Every baseline of §6.1 implements the same PowerController interface
// (see internal/baselines), so the experiment harness runs them
// identically: at the end of each control period T the harness feeds the
// controller the period-averaged power and normalized throughputs, and
// applies the controller's frequency decision through the delta-sigma
// modulators for the next period.
package core

import (
	"fmt"
	"math"

	"repro/internal/actuator"
	"repro/internal/faults"
	"repro/internal/flight"
	"repro/internal/mpc"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/sysid"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Observation is what a power controller sees at the end of a control
// period.
type Observation struct {
	Period    int     // control period index (0-based)
	TimeS     float64 // simulated seconds at the observation (period end)
	AvgPowerW float64 // meter average over the period (the feedback)
	SetpointW float64 // the cap P_s for the next period

	CPUFreqGHz float64 // applied during the period
	GPUFreqMHz []float64

	CPUThroughputNorm float64   // CPU workload throughput / its max
	GPUThroughputNorm []float64 // per-GPU inference throughput / its max
	CPUUtil           float64
	GPUUtil           []float64

	// GPUPhasePrefill is the period-average prefill share of busy GPU
	// time per GPU (LLM workloads only; nil for CNN runs). Phase-aware
	// controllers blend their power-law exponent from it.
	GPUPhasePrefill []float64

	// DevicePowerW carries per-device readings (RAPL/NVML style) for
	// controllers that split the budget, like the CPU+GPU baseline.
	CPUPowerW float64
	GPUPowerW []float64

	// GPULatencyS is the period-average measured batch latency per GPU,
	// used by CapGPU's adaptive SLO floor correction.
	GPULatencyS []float64

	// SLOs holds the current per-GPU inference latency SLO in seconds
	// per batch (0 = no SLO).
	SLOs []float64

	// MeterStale counts consecutive control periods (including this one)
	// for which the power meter produced no trustworthy reading; 0 means
	// AvgPowerW is a fresh measurement. Adaptive controllers must freeze
	// model updates while it is nonzero — the harness is feeding them a
	// held value, not data.
	MeterStale int
	// Degraded mirrors MeterStale > 0 for harnesses running with
	// graceful degradation enabled: AvgPowerW is the last good reading,
	// not this period's measurement.
	Degraded bool
}

// Decision is a controller's target frequencies for the next period.
// Values may be fractional; the harness resolves them onto the hardware
// grids with delta-sigma modulation (§5).
type Decision struct {
	CPUFreqGHz float64
	GPUFreqMHz []float64

	// Flight carries the controller's decision internals for the flight
	// recorder. Nil unless flight recording was enabled on a controller
	// that exposes a trace (FlightAware); the harness moves it into the
	// period's DecisionRecord.
	Flight *flight.ControllerTrace
}

// PowerController is implemented by CapGPU and every baseline.
type PowerController interface {
	Name() string
	Decide(obs Observation) Decision
}

// Options tunes the CapGPU controller.
type Options struct {
	MPC mpc.Config
	// FilterAlpha is the EWMA coefficient applied to the period-average
	// power before it enters the MPC (p̂ = α·p + (1−α)·p̂). The meter
	// already averages the period's 1 s samples (§6.1). Default 1
	// (disabled): filtering lags step responses; MoveGain is the
	// preferred damping.
	FilterAlpha float64
	// MoveGain scales the applied fraction of the MPC's first move
	// (0 < β ≤ 1). β < 1 turns the near-deadbeat receding-horizon law
	// into a damped one (closed-loop pole ≈ 1−β), trading a slightly
	// longer settling time for much lower sensitivity to meter noise —
	// the same bandwidth trade the baselines make through pole
	// placement. Default 0.7.
	MoveGain float64
	// SLOMargin is the fractional safety margin applied when inverting
	// an SLO into a GPU frequency floor: the floor targets
	// (1−margin)·SLO, covering the latency model's residual (its fit is
	// R² ≈ 0.91, not perfect). Default 0.1; set negative to disable.
	SLOMargin float64
	// Adaptive enables online model adaptation: a recursive
	// least-squares estimator (warm-started from the identified model)
	// refines the plant gains every period, so the controller tracks
	// workload-induced gain changes — the §4.4 scenario — instead of
	// relying on its stability margin alone.
	Adaptive bool
	// Forgetting is the RLS forgetting factor when Adaptive is set
	// (default 0.98).
	Forgetting float64
	// PhaseAware enables LLM phase-aware capping: the MPC's GPU gains
	// are rescheduled every period from the observed prefill/decode
	// phase mix (decode barely responds to clocks, so its effective
	// gain is tiny), and a prefill-regime headroom guard pulls GPU
	// commands back toward the SLO floors whenever the prefill-regime
	// power model predicts the commanded point would violate the cap if
	// a prefill burst arrived. Without phase observations (CNN runs)
	// the controller is byte-identical to the phase-blind one.
	PhaseAware bool
	// PhaseLaw overrides the phase power-law exponents used when
	// PhaseAware is set; nil uses DefaultPhaseLaw().
	PhaseLaw *PhasePowerLaw
}

// PhasePowerLaw captures how dynamic GPU power scales with core clock
// per serving phase: P_dyn ~ (f/f_max)^alpha with alpha near-linear for
// compute-bound prefill and near-zero for memory-bound decode. IdentExp
// is the exponent regime the offline identification sweep effectively
// averaged over; the gain scheduler rescales the identified GPU gains
// by alpha(mix)/IdentExp.
type PhasePowerLaw struct {
	PrefillExp float64
	DecodeExp  float64
	IdentExp   float64
}

// DefaultPhaseLaw returns exponents matching the workload.LLMZoo
// profiles, with the identification regime centered between phases.
func DefaultPhaseLaw() PhasePowerLaw {
	return PhasePowerLaw{PrefillExp: 1.15, DecodeExp: 0.10, IdentExp: 0.625}
}

// CapGPU is the paper's controller: MIMO MPC over [CPU, GPU...] with
// weight assignment and SLO-derived GPU frequency floors.
type CapGPU struct {
	ctrl           *mpc.Controller
	initial        *sysid.Model
	alpha          float64
	beta           float64 // applied fraction of the first MPC move
	sloMargin      float64
	filt           float64 // EWMA state
	seen           bool
	rls            *sysid.RLS // nil unless Options.Adaptive
	lastInnovation float64
	lastReg        []float64 // regressor at the last absorbed RLS update
	// floorBoost is the per-GPU multiplicative correction on the
	// SLO-derived frequency floor, adapted from measured latency: when a
	// GPU misses its SLO despite sitting at the model floor, the floor
	// rises until it holds (integral action against model bias).
	floorBoost []float64
	// latency models per GPU for inverting SLOs into frequency bounds
	// (Eq. 10b,c); nil entries mean no SLO handling for that GPU.
	latency []*sysid.LatencyModel
	fminC   float64
	fmaxC   float64
	fminG   []float64
	fmaxG   []float64

	// Phase-aware capping state (nil/empty unless Options.PhaseAware):
	// guardGains/guardOffset form the prefill-regime absolute power
	// model anchored to agree with the identified model at each GPU
	// range's midpoint.
	phase       *PhasePowerLaw
	guardGains  []float64
	guardOffset float64
	scrSched    []float64 // scratch for the scheduled gain vector

	sink telemetry.Sink // nil = telemetry disabled
	node string

	flightOn bool // build flight.ControllerTrace per decision

	// Per-decision scratch, reused across periods so the steady-state
	// Decide path does not re-allocate its knob vectors every call.
	// Safe because mpc.Controller.Compute and sysid.RLS.Update copy
	// what they keep, and lastReg is copied out of scrReg on absorb.
	scrFreqs []float64
	scrTP    []float64
	scrLower []float64
	scrReg   []float64
	scrGains []float64
}

// TelemetryAware is implemented by controllers that emit their own
// lifecycle events (CapGPU reports frozen adaptation and infeasible MPC
// subproblems). Harness.SetTelemetry forwards the sink through it.
type TelemetryAware interface {
	SetTelemetry(sink telemetry.Sink, node string)
}

// SetTelemetry implements TelemetryAware.
func (c *CapGPU) SetTelemetry(sink telemetry.Sink, node string) {
	c.sink = sink
	c.node = node
}

// FlightAware is implemented by controllers that can attach a
// flight.ControllerTrace to their decisions. Harness.SetFlight toggles
// it; recording is off by default and costs nothing while off.
type FlightAware interface {
	SetFlightRecording(on bool)
}

// SetFlightRecording implements FlightAware: besides building traces,
// it switches the MPC into detailed-diagnostics mode so constraint
// activity and the horizon trajectory are available.
func (c *CapGPU) SetFlightRecording(on bool) {
	c.flightOn = on
	c.ctrl.SetDetailedDiagnostics(on)
}

// NewCapGPU builds the controller from an identified power model (knob 0
// = CPU) and the server's frequency ranges. latencyModels has one entry
// per GPU and may contain nils.
func NewCapGPU(model *sysid.Model, server *sim.Server, latencyModels []*sysid.LatencyModel, opts Options) (*CapGPU, error) {
	ng := server.NumGPUs()
	if len(model.Gains) != 1+ng {
		return nil, fmt.Errorf("core: model has %d gains for a server with %d knobs", len(model.Gains), 1+ng)
	}
	if latencyModels != nil && len(latencyModels) != ng {
		return nil, fmt.Errorf("core: %d latency models for %d GPUs", len(latencyModels), ng)
	}
	cfg := server.Config()
	fmin := make([]float64, 1+ng)
	fmax := make([]float64, 1+ng)
	fmin[0], fmax[0] = cfg.CPU.FreqMinGHz, cfg.CPU.FreqMaxGHz
	for i := 0; i < ng; i++ {
		fmin[1+i], fmax[1+i] = cfg.GPUs[i].FreqMinMHz, cfg.GPUs[i].FreqMaxMHz
	}
	ctrl, err := mpc.New(model.Gains, fmin, fmax, opts.MPC)
	if err != nil {
		return nil, err
	}
	alpha := opts.FilterAlpha
	if alpha == 0 {
		alpha = 1
	}
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("core: filter alpha %g outside (0, 1]", alpha)
	}
	beta := opts.MoveGain
	if beta == 0 {
		beta = 0.7
	}
	if beta <= 0 || beta > 1 {
		return nil, fmt.Errorf("core: move gain %g outside (0, 1]", beta)
	}
	sloMargin := opts.SLOMargin
	if sloMargin == 0 {
		sloMargin = 0.1
	}
	if sloMargin < 0 {
		sloMargin = 0
	}
	if sloMargin >= 1 {
		return nil, fmt.Errorf("core: SLO margin %g must be below 1", sloMargin)
	}
	boost := make([]float64, ng)
	for i := range boost {
		boost[i] = 1
	}
	var rls *sysid.RLS
	if opts.Adaptive {
		forget := opts.Forgetting
		if forget == 0 {
			forget = 0.98
		}
		// The estimator works in normalized frequency coordinates
		// (each knob mapped to [0,1]) so the GHz/MHz scale disparity
		// does not destroy its conditioning; warm-start from the
		// offline model expressed in those coordinates.
		norm := &sysid.Model{Gains: make([]float64, 1+ng)}
		norm.Gains[0] = model.Gains[0] * (fmax[0] - fmin[0])
		norm.Offset = model.Offset + model.Gains[0]*fmin[0]
		for i := 0; i < ng; i++ {
			norm.Gains[1+i] = model.Gains[1+i] * (fmax[1+i] - fmin[1+i])
			norm.Offset += model.Gains[1+i] * fmin[1+i]
		}
		rls, err = sysid.NewRLS(1+ng, norm, forget, 10)
		if err != nil {
			return nil, err
		}
	}
	c := &CapGPU{
		ctrl:       ctrl,
		initial:    model,
		alpha:      alpha,
		beta:       beta,
		sloMargin:  sloMargin,
		floorBoost: boost,
		rls:        rls,
		latency:    latencyModels,
		fminC:      fmin[0],
		fmaxC:      fmax[0],
		fminG:      fmin[1:],
		fmaxG:      fmax[1:],
	}
	if opts.PhaseAware {
		law := DefaultPhaseLaw()
		if opts.PhaseLaw != nil {
			law = *opts.PhaseLaw
		}
		if law.PrefillExp <= 0 || law.DecodeExp <= 0 || law.IdentExp <= 0 {
			return nil, fmt.Errorf("core: phase power-law exponents must be positive, got %+v", law)
		}
		// Prefill-regime model: steeper GPU gains, offset re-anchored so
		// the two models agree at each GPU range's midpoint (where the
		// identification sweep concentrated its excitation).
		guard := make([]float64, 1+ng)
		copy(guard, model.Gains)
		off := model.Offset
		for i := 0; i < ng; i++ {
			gi := model.Gains[1+i] * law.PrefillExp / law.IdentExp
			mid := 0.5 * (fmin[1+i] + fmax[1+i])
			off += (model.Gains[1+i] - gi) * mid
			guard[1+i] = gi
		}
		c.phase = &law
		c.guardGains = guard
		c.guardOffset = off
	}
	return c, nil
}

// Name implements PowerController.
func (c *CapGPU) Name() string { return "CapGPU" }

// MPC exposes the underlying controller (for stability analysis).
func (c *CapGPU) MPC() *mpc.Controller { return c.ctrl }

// ModelInnovation returns the adaptive estimator's last one-step power
// prediction error (0 when not adaptive or before the first update).
func (c *CapGPU) ModelInnovation() float64 { return c.lastInnovation }

// CurrentGains returns the gains the MPC is currently using.
func (c *CapGPU) CurrentGains() []float64 { return c.ctrl.Gains() }

// CurrentModel returns the controller's present power model in natural
// units: the RLS estimate when adaptive, otherwise the model it was
// built with.
func (c *CapGPU) CurrentModel() *sysid.Model {
	if c.rls != nil && c.rls.Count() > 3 {
		return c.denormModel()
	}
	return c.initial
}

// Decide implements PowerController: one MPC step.
//
//capgpu:hotpath
func (c *CapGPU) Decide(obs Observation) Decision {
	// Online adaptation: the observation pairs the frequencies applied
	// during the period with the period's average power — exactly the
	// static-map sample p = A·F + C the estimator consumes. Two
	// safeguards keep closed-loop RLS honest: updates are gated on
	// genuine frequency excitation (steady-state dither carries no
	// identification value and lets thermal drift pollute the gains),
	// and the adapted gains are projected into the §4.4 trust region
	// around the offline model before they steer the MPC.
	// A stale observation carries a held (or garbage) power value, not a
	// measurement: absorbing it would corrupt the identified gains, so
	// updates freeze until the meter is fresh again. The excitation gate
	// then naturally re-enables learning on recovery — the fail-safe
	// descent moved every knob, so the first fresh regressor is far from
	// lastReg and carries real identification value.
	if c.sink != nil && c.rls != nil && obs.MeterStale > 0 {
		c.sink.Emit(telemetry.Event{
			TimeS: obs.TimeS, Period: obs.Period, Type: telemetry.EventAdaptFrozen,
			Node: c.node, Device: -1, Value: float64(obs.MeterStale),
		})
	}
	if c.rls != nil && obs.MeterStale == 0 && len(obs.GPUFreqMHz) == len(c.fminG) {
		f := c.normReg(obs.CPUFreqGHz, obs.GPUFreqMHz)
		if c.excited(f) {
			if innov, err := c.rls.Update(f, obs.AvgPowerW); err == nil {
				c.lastInnovation = innov
				c.lastReg = append(c.lastReg[:0], f...) // copy: f is scratch
				// Let the estimate settle before steering the MPC.
				if c.rls.Count() > 3 {
					_ = c.ctrl.SetGains(c.projectGains(c.denormModel().Gains))
				}
			}
		}
	}
	if !c.seen {
		c.filt = obs.AvgPowerW
		c.seen = true
	} else {
		c.filt = c.alpha*obs.AvgPowerW + (1-c.alpha)*c.filt
	}
	ng := len(obs.GPUFreqMHz)
	c.scrFreqs = growFloats(c.scrFreqs, 1+ng)
	freqs := c.scrFreqs
	freqs[0] = obs.CPUFreqGHz
	copy(freqs[1:], obs.GPUFreqMHz)

	c.scrTP = growFloats(c.scrTP, 1+ng)
	tp := c.scrTP
	tp[0] = obs.CPUThroughputNorm
	copy(tp[1:], obs.GPUThroughputNorm)

	// SLO floors (Eq. 10b,c): invert each GPU's latency law with the
	// safety margin, then apply the adaptive correction learned from
	// measured latencies.
	c.scrLower = growFloats(c.scrLower, 1+ng)
	lower := c.scrLower
	lower[0] = c.fminC
	for i := 0; i < ng; i++ {
		lower[1+i] = c.fminG[i]
		if c.latency == nil || c.latency[i] == nil || len(obs.SLOs) != ng || obs.SLOs[i] <= 0 {
			continue
		}
		lm := c.latency[i]
		slo := obs.SLOs[i]
		// Adapt the floor correction: a measured miss at (or above) the
		// current floor means the model under-predicts; raise the boost.
		// Comfortable headroom lets it decay back toward 1.
		atFloor := true
		if prev, err := mpc.SLOFrequencyBound(lm.EMin, lm.Gamma, lm.FMax, (1-c.sloMargin)*slo); err == nil {
			atFloor = obs.GPUFreqMHz[i] >= 0.98*math.Min(prev*c.floorBoost[i], c.fmaxG[i])
		}
		if len(obs.GPULatencyS) == ng && obs.GPULatencyS[i] > 0 {
			if obs.GPULatencyS[i] > slo && atFloor {
				// Missing while already at the model floor: the law
				// under-predicts; raise the correction.
				c.floorBoost[i] *= 1.05
			} else if obs.GPULatencyS[i] < 0.85*slo {
				c.floorBoost[i] = math.Max(1, c.floorBoost[i]*0.995)
			}
			if c.floorBoost[i] > 2 {
				c.floorBoost[i] = 2
			}
		}
		bound, err := mpc.SLOFrequencyBound(lm.EMin, lm.Gamma, lm.FMax, (1-c.sloMargin)*slo)
		if err != nil {
			continue
		}
		bound *= c.floorBoost[i]
		if bound > c.fmaxG[i] {
			bound = c.fmaxG[i]
		}
		if bound > lower[1+i] {
			lower[1+i] = bound
		}
	}

	// Phase-aware gain scheduling: blend each GPU's effective power
	// exponent from its observed prefill share and rescale the current
	// model's GPU gains by alpha(mix)/IdentExp. A decode-heavy GPU gets
	// a near-zero gain — the MPC stops chasing power with a knob the
	// plant no longer answers to — while a prefill-heavy GPU recovers
	// the full identified response. The schedule is deterministic
	// physics, not an estimate, so it bypasses the RLS trust region and
	// uses its own wider clamp against degenerate gains.
	phaseMix := -1.0
	if c.phase != nil && len(obs.GPUPhasePrefill) == ng {
		base := c.CurrentModel()
		c.scrSched = growFloats(c.scrSched, 1+ng)
		sched := c.scrSched
		copy(sched, base.Gains[:1+ng])
		acc := 0.0
		for i := 0; i < ng; i++ {
			mix := clamp01(obs.GPUPhasePrefill[i])
			acc += mix
			exp := mix*c.phase.PrefillExp + (1-mix)*c.phase.DecodeExp
			g := base.Gains[1+i] * exp / c.phase.IdentExp
			lo, hi := base.Gains[1+i]/8, base.Gains[1+i]*8
			sched[1+i] = math.Min(math.Max(g, lo), hi)
		}
		phaseMix = acc / float64(ng)
		_ = c.ctrl.SetGains(sched)
	}

	d, diag, err := c.ctrl.Compute(c.filt, obs.SetpointW, freqs, tp, lower)
	if err != nil {
		// Constraint conflicts (e.g. every GPU pinned by SLO floors with
		// the cap unreachable) degrade to holding the current point; the
		// paper notes such set points need mechanisms beyond DVFS (§4.4).
		if c.sink != nil {
			c.sink.Emit(telemetry.Event{
				TimeS: obs.TimeS, Period: obs.Period, Type: telemetry.EventMPCInfeasible,
				Node: c.node, Device: -1, Detail: err.Error(),
			})
		}
		hold := Decision{CPUFreqGHz: obs.CPUFreqGHz, GPUFreqMHz: append([]float64(nil), obs.GPUFreqMHz...)}
		if c.flightOn {
			hold.Flight = c.baseTrace(obs)
			hold.Flight.Infeasible = true
			hold.Flight.InfeasibleDetail = err.Error()
		}
		return hold
	}
	out := Decision{CPUFreqGHz: freqs[0] + c.beta*d[0], GPUFreqMHz: make([]float64, ng)}
	for i := 0; i < ng; i++ {
		out.GPUFreqMHz[i] = freqs[1+i] + c.beta*d[1+i]
	}

	// Prefill-headroom guard: during decode, measured power barely
	// answers the GPU clocks, so integral feedback walks them toward
	// f_max at no visible power cost — and the next prefill burst then
	// fires at full clocks, straight through the cap. The guard
	// evaluates the commanded point under the prefill-regime absolute
	// model and, when it would exceed the set point, contracts every
	// GPU command proportionally toward its (SLO-respecting) lower
	// bound until the prefill prediction fits. Decode throughput is
	// nearly clock-flat, so the contraction costs almost no latency.
	phaseGuarded := false
	if c.guardGains != nil && phaseMix >= 0 {
		// The absolute model was fit on the identification sweep, which
		// runs sub-saturated; a real prefill burst saturates the pipeline
		// and lands above the model's prediction at the same clocks. The
		// guard therefore targets the set point minus a headroom margin
		// that covers the model's saturation bias.
		const guardMarginFrac = 0.08
		target := (1 - guardMarginFrac) * obs.SetpointW
		pred := c.guardOffset + c.guardGains[0]*out.CPUFreqGHz
		floorPred := pred
		for i := 0; i < ng; i++ {
			pred += c.guardGains[1+i] * out.GPUFreqMHz[i]
			floorPred += c.guardGains[1+i] * lower[1+i]
		}
		if pred > target && pred-floorPred > 1e-9 {
			frac := (pred - target) / (pred - floorPred)
			if frac > 1 {
				frac = 1
			}
			// The guard is a readiness constraint for the *next* prefill
			// burst, not a second tracking loop: once the plant is already
			// prefill-heavy, measured power answers the knobs and the MPC
			// feedback owns the set point, so applying the absolute-model
			// contraction on top would double-regulate and bias the plant
			// below the cap. Engage it fully while decode-heavy and ramp
			// it out as the observed prefill share crosses into a
			// prefill-heavy regime.
			const mixLo, mixHi = 0.35, 0.65
			switch {
			case phaseMix >= mixHi:
				frac = 0
			case phaseMix > mixLo:
				frac *= (mixHi - phaseMix) / (mixHi - mixLo)
			}
			for i := 0; i < ng; i++ {
				out.GPUFreqMHz[i] -= frac * (out.GPUFreqMHz[i] - lower[1+i])
			}
			phaseGuarded = true
		}
	}

	if c.flightOn {
		out.Flight = c.buildTrace(obs, d, diag, tp, lower)
		if phaseMix >= 0 {
			out.Flight.PhaseMix = phaseMix
			out.Flight.PhaseGuarded = phaseGuarded
		}
	}
	return out
}

// baseTrace fills the model/adaptation half of a ControllerTrace — the
// part that exists even when the MPC subproblem had no solution.
func (c *CapGPU) baseTrace(obs Observation) *flight.ControllerTrace {
	model := c.CurrentModel()
	t := &flight.ControllerTrace{
		Gains:          append([]float64(nil), model.Gains...),
		OffsetW:        model.Offset,
		InnovationW:    c.lastInnovation,
		Adaptive:       c.rls != nil,
		AdaptFrozen:    c.rls != nil && obs.MeterStale > 0,
		FilteredPowerW: c.filt,
	}
	if c.rls != nil {
		t.RLSUpdates = c.rls.Count()
	}
	return t
}

// buildTrace assembles the flight-recorder view of a successful MPC
// decision.
func (c *CapGPU) buildTrace(obs Observation, d []float64, diag *mpc.Diagnostics, tp, lower []float64) *flight.ControllerTrace {
	t := c.baseTrace(obs)
	t.PredictedEndW = diag.PredictedEndPowerW
	t.HorizonW = diag.PredictedStepW
	t.BiasW = diag.BiasW
	t.DeadbandHold = diag.DeadbandHold
	t.Relaxed = diag.Clamped
	t.Solver = diag.Solver
	t.SolverIterations = diag.SolverIterations

	// One-step prediction under the applied (move-gain-scaled) first
	// move — what the flight recorder scores against the next sample.
	g := c.ctrl.Gains()
	pred := c.filt
	for i := range d {
		pred += g[i] * c.beta * d[i]
	}
	t.PredictedNextW = pred

	t.Knobs = make([]flight.KnobConstraint, len(d))
	for i := range t.Knobs {
		kc := &t.Knobs[i]
		if i < len(tp) {
			kc.ThroughputNorm = tp[i]
		}
		if i < len(diag.Weights) {
			kc.WeightR = diag.Weights[i]
		}
		if i < len(diag.ActiveLower) {
			kc.AtLower = diag.ActiveLower[i]
		}
		if i < len(diag.ActiveUpper) {
			kc.AtUpper = diag.ActiveUpper[i]
		}
		if i < len(diag.PinnedKnobs) {
			kc.Pinned = diag.PinnedKnobs[i]
		}
		if i < len(diag.LowerBoundsNorm) {
			kc.LowerBoundNorm = diag.LowerBoundsNorm[i]
		}
		if i > 0 && i-1 < len(c.floorBoost) {
			// The floor is SLO-derived exactly when it was raised above
			// the hardware minimum in Decide's bound inversion.
			kc.SLOFloor = i < len(lower) && lower[i] > c.fminG[i-1]
			kc.FloorBoost = c.floorBoost[i-1]
		}
	}
	return t
}

// growFloats returns buf with length n, reusing its backing array when
// the capacity suffices (per-period scratch reuse). Contents are
// whatever the caller last wrote; callers overwrite every element.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// normReg maps the applied frequencies into [0,1] per knob — the
// estimator's coordinates.
func (c *CapGPU) normReg(fc float64, fg []float64) []float64 {
	c.scrReg = growFloats(c.scrReg, 1+len(fg))
	f := c.scrReg
	//lint:ignore floatsafety New validates fmaxC > fminC, so the range is nonzero
	f[0] = (fc - c.fminC) / (c.fmaxC - c.fminC)
	for i := range fg {
		//lint:ignore floatsafety New validates fmaxG[i] > fminG[i] per GPU
		f[1+i] = (fg[i] - c.fminG[i]) / (c.fmaxG[i] - c.fminG[i])
	}
	return f
}

// denormModel converts the estimator's normalized-coordinate model back
// to natural units (W/GHz, W/MHz).
func (c *CapGPU) denormModel() *sysid.Model {
	nm := c.rls.Model()
	out := &sysid.Model{Gains: make([]float64, len(nm.Gains)), Offset: nm.Offset, N: nm.N}
	//lint:ignore floatsafety New validates fmaxC > fminC, so the range is nonzero
	out.Gains[0] = nm.Gains[0] / (c.fmaxC - c.fminC)
	out.Offset -= out.Gains[0] * c.fminC
	for i := range c.fminG {
		//lint:ignore floatsafety New validates fmaxG[i] > fminG[i] per GPU
		out.Gains[1+i] = nm.Gains[1+i] / (c.fmaxG[i] - c.fminG[i])
		out.Offset -= out.Gains[1+i] * c.fminG[i]
	}
	return out
}

// excited reports whether the (normalized) regressor has moved enough
// since the last absorbed update to carry identification value (≥2% of
// range on average across the knobs).
func (c *CapGPU) excited(f []float64) bool {
	if c.lastReg == nil {
		return true
	}
	d := 0.0
	for i := range f {
		d += math.Abs(f[i] - c.lastReg[i])
	}
	return d/float64(len(f)) >= 0.02
}

// projectGains clamps adapted gains into [1/3x, 3x] of the offline
// model's — the gain-error region §4.4 certifies stable — so a bad
// stretch of data can degrade, but never destabilize, the controller.
func (c *CapGPU) projectGains(g []float64) []float64 {
	c.scrGains = growFloats(c.scrGains, len(g))
	out := c.scrGains
	for i := range g {
		lo := c.initial.Gains[i] / 3
		hi := c.initial.Gains[i] * 3
		out[i] = math.Min(math.Max(g[i], lo), hi)
	}
	return out
}

// DegradeConfig tunes the harness's graceful degradation under meter
// faults. The zero value enables it with defaults; set Disable for the
// unsafe strawman the R1 robustness experiment contrasts against.
type DegradeConfig struct {
	// Disable turns degradation off entirely: a blind period feeds the
	// controller a raw 0 W average, no fail-safe engages, and no robust
	// filtering or stuck-value detection runs.
	Disable bool
	// FailSafeAfter is how many consecutive blind periods are tolerated
	// (riding on the last good reading) before the harness enters
	// fail-safe; default 3.
	FailSafeAfter int
	// FailSafeStep is the fraction of each knob's frequency range
	// stepped toward f_min per fail-safe period; default 0.25, so a
	// blind server is at its power floor within four periods and the cap
	// cannot be violated no matter what the workload does.
	FailSafeStep float64
	// StaleGuardW inflates the last-good fallback value by this many
	// Watts per consecutive blind period (default 8, negative to
	// disable). While the loop is blind, unobserved thermal drift can
	// carry true power above the last reading; the guard makes the
	// controller trim a little each blind period instead of holding,
	// covering the drift until fail-safe takes over.
	StaleGuardW float64
}

// Harness runs a PowerController against a simulated server: the §3.1
// feedback loop (measure → decide → modulate → actuate), with the
// fault-injection and graceful-degradation plumbing of internal/faults.
//
// A Harness is single-goroutine: it owns its server, meter, actuator
// bank, and flight recorder, none of which are safe for concurrent
// use. Rack-scale parallelism (cluster.Coordinator.Workers) steps many
// harnesses concurrently, one goroutine per harness at a time — the
// only shared object a harness may touch from its loop is a
// thread-safe telemetry sink (the hub, or a cluster-installed
// telemetry.Buffer that the coordinator flushes at its barrier).
type Harness struct {
	Server     *sim.Server
	Meter      *power.Meter
	Bank       *actuator.Bank
	Controller PowerController
	// PeriodSeconds is the control period T (paper: 4, with 1 s meter
	// sampling).
	PeriodSeconds int
	// Setpoint returns P_s for period k (enables Fig. 10's set-point
	// steps). Required.
	Setpoint func(period int) float64
	// SLOs returns the per-GPU latency SLOs for period k; nil for none
	// (enables Fig. 9's SLO changes).
	SLOs func(period int) []float64
	// OnPeriodStart, if set, runs before each control period — the hook
	// experiments use to inject workload changes mid-run.
	OnPeriodStart func(period int, s *sim.Server)
	// MeterDropout, if set, reports whether the power meter loses period
	// k's samples entirely — the legacy single-fault hook, kept for
	// callers predating Faults. The loop then falls back to the last
	// good period average instead of feeding the controller a zero.
	MeterDropout func(period int) bool
	// Faults optionally injects the internal/faults schedule: meter
	// dropout/stuck/spike, actuator command loss, GPU derating and
	// failure. When set (and Degrade.Disable is not), the harness also
	// switches to robust period averaging (trimmed mean + stuck-value
	// detection).
	Faults *faults.Schedule
	// Degrade tunes the degradation policy (zero value = enabled
	// defaults).
	Degrade DegradeConfig
	// ActuatorRetries bounds re-deliveries of a frequency command whose
	// read-back diverges from the command (default 2; negative = none).
	ActuatorRetries int
	// Telemetry, when non-nil, receives a period-start event, the five
	// phase spans (sense → condense → decide → actuate → verify), and one
	// end-of-period sample per control period. Nil (the default) disables
	// instrumentation; use SetTelemetry to also wire the bank and the
	// controller.
	Telemetry telemetry.Sink
	// TelemetryNode labels this harness's telemetry (the rack node name;
	// empty for single-server runs).
	TelemetryNode string
	// WorkloadClass labels this harness's period samples for the energy
	// ledger's attribution (empty ledgers under the default class).
	WorkloadClass string
	// PolicyEpoch stamps period samples with the policy epoch they ran
	// under; the control-plane daemon restamps it on every applied
	// mutation.
	PolicyEpoch int
	// CauseID / CauseParent stamp flight records with the provenance
	// span that set the current cap (and that span's parent — the
	// reallocation). The cluster coordinator rewrites them whenever a
	// traced reallocation moves this node's cap; empty (omitted from
	// JSON) when no tracer is attached.
	CauseID     string
	CauseParent string
	// Flight, when non-nil, receives one DecisionRecord per control
	// period (the flight recorder). Nil (the default) disables recording
	// at the cost of one nil check per period; use SetFlight to also
	// switch a FlightAware controller into trace-building mode.
	Flight *flight.Recorder

	lastGoodAvgW float64
	haveGoodAvg  bool
	stale        int     // consecutive blind periods so far
	lastRawW     float64 // last recorded meter value (stuck detection)
	haveRaw      bool
	gpuFailed    []bool
	stashedPipes []workload.GPUWorkload

	// applyFn caches the actuator ApplyFunc (a method value) so the
	// period loop does not allocate one closure per period; applyK is
	// the period it reads the fault schedule at.
	applyFn actuator.ApplyFunc
	applyK  int

	// Per-period scratch for StepPeriod's transients: the observation's
	// derived vectors and the actuation target vector. Safe to reuse
	// because Observation is only read during Controller.Decide and the
	// bank copies targets into its own report; PeriodRecord's slices,
	// which escape to the caller, are still freshly allocated.
	obsTPNorm []float64
	obsUtil   []float64
	applyTgt  []float64
}

// PeriodRecord is the harness's log entry for one control period.
type PeriodRecord struct {
	Period     int
	AvgPowerW  float64
	MaxPowerW  float64 // worst 1 s sample in the period (violation check)
	SetpointW  float64
	CPUFreqGHz float64
	GPUFreqMHz []float64

	GPUThroughput  []float64 // img/s (CNN) or tokens/s (LLM), period average
	GPULatencyS    []float64 // s/batch (CNN) or s/output-token (LLM), period average
	GPUQueueDelayS []float64 // s/img, period average
	CPUThroughput  float64   // subsets/s
	CPULatencyS    float64   // s/subset

	// GPUPhasePrefill and GPUQueueDepth are the period-average prefill
	// share and admission-queue depth per GPU. Allocated only when an
	// LLM workload is attached (nil for CNN runs, keeping those
	// artifacts byte-identical).
	GPUPhasePrefill []float64
	GPUQueueDepth   []float64

	CPUPowerW float64
	GPUPowerW []float64

	SLOs     []float64
	SLOMiss  []bool // latency exceeded the SLO this period
	Decision Decision
	// EnergyJ is the true energy drawn during this period (Joules);
	// divide period throughput by it for inferences per Joule.
	EnergyJ float64

	// TrueAvgPowerW is the period mean of the server's true power draw —
	// what the breaker sees. It equals AvgPowerW up to meter noise in
	// healthy periods but diverges under meter faults, when AvgPowerW
	// records whatever value the controller was actually fed.
	TrueAvgPowerW float64
	// MeterStale counts consecutive blind periods including this one
	// (0 = fresh reading).
	MeterStale int
	// Degraded marks a blind period handled by the last-good-value
	// fallback.
	Degraded bool
	// FailSafe marks a period in which the harness overrode the
	// controller and stepped every knob toward f_min.
	FailSafe bool
	// Uncontrolled marks a period produced by StepUncontrolled: the
	// node ran open-loop (rack dropout), no controller decision exists.
	Uncontrolled bool
	// ActuatorDiverged flags knobs (0 = CPU, 1.. = GPUs) whose applied
	// frequency still differed from the command after bounded retry.
	ActuatorDiverged []bool
	// ActuatorRetries is the number of command re-deliveries this period.
	ActuatorRetries int
	// Faults lists the injected faults active this period (DSL form).
	Faults []string
}

// NewHarness wires the standard loop: ACPI-style meter at 1 s sampling
// and a delta-sigma bank matching the server's grids.
func NewHarness(s *sim.Server, ctrl PowerController, setpoint func(int) float64) (*Harness, error) {
	if setpoint == nil {
		return nil, fmt.Errorf("core: nil setpoint schedule")
	}
	meter, err := power.NewMeter(1)
	if err != nil {
		return nil, err
	}
	cfg := s.Config()
	n := 1 + s.NumGPUs()
	mins := make([]float64, n)
	maxs := make([]float64, n)
	steps := make([]float64, n)
	mins[0], maxs[0], steps[0] = cfg.CPU.FreqMinGHz, cfg.CPU.FreqMaxGHz, cfg.CPU.FreqStepGHz
	for i, g := range cfg.GPUs {
		mins[1+i], maxs[1+i], steps[1+i] = g.FreqMinMHz, g.FreqMaxMHz, g.FreqStepMHz
	}
	bank, err := actuator.NewBank(mins, maxs, steps)
	if err != nil {
		return nil, err
	}
	return &Harness{
		Server:        s,
		Meter:         meter,
		Bank:          bank,
		Controller:    ctrl,
		PeriodSeconds: 4,
		Setpoint:      setpoint,
	}, nil
}

// SetTelemetry attaches a telemetry sink to the harness, its actuator
// bank, and — when the controller implements TelemetryAware — the
// controller, labeling everything with the given node name. Handed the
// bare hub, the harness binds its own node view (Hub.NodeSink), so the
// node name is given once and the loop's phase spans are its own.
func (h *Harness) SetTelemetry(sink telemetry.Sink, node string) {
	if hub, ok := sink.(*telemetry.Hub); ok && hub != nil {
		sink = hub.NodeSink(node)
	}
	h.Telemetry = sink
	h.TelemetryNode = node
	if h.Bank != nil {
		h.Bank.SetTelemetry(sink, node)
	}
	if ta, ok := h.Controller.(TelemetryAware); ok {
		ta.SetTelemetry(sink, node)
	}
}

// SetFlight attaches a flight recorder to the harness and — when the
// controller implements FlightAware — switches it into trace-building
// mode. Pass nil to detach and stop trace building.
func (h *Harness) SetFlight(rec *flight.Recorder) {
	h.Flight = rec
	if fa, ok := h.Controller.(FlightAware); ok {
		fa.SetFlightRecording(rec != nil)
	}
}

// flightRecord condenses one period into the flight recorder's entry,
// adopting the controller trace the decision carried.
func (h *Harness) flightRecord(rec PeriodRecord, dec Decision) flight.DecisionRecord {
	fr := flight.DecisionRecord{
		Period:          rec.Period,
		TimeS:           h.Server.Now(),
		CauseID:         h.CauseID,
		ParentID:        h.CauseParent,
		SetpointW:       rec.SetpointW,
		MeasuredW:       rec.AvgPowerW,
		TruePowerW:      rec.TrueAvgPowerW,
		MeterStale:      rec.MeterStale,
		Degraded:        rec.Degraded,
		FailSafe:        rec.FailSafe,
		Uncontrolled:    rec.Uncontrolled,
		Faults:          rec.Faults,
		CommandedCPUGHz: dec.CPUFreqGHz,
		CommandedGPUMHz: append([]float64(nil), dec.GPUFreqMHz...),
		ActuatorRetries: rec.ActuatorRetries,
		Controller:      dec.Flight,
		PhasePrefill:    rec.GPUPhasePrefill,
		QueueDepth:      rec.GPUQueueDepth,
	}
	for i, miss := range rec.SLOMiss {
		if miss {
			fr.SLOMissGPUs = append(fr.SLOMissGPUs, i)
		}
	}
	for i, div := range rec.ActuatorDiverged {
		if div {
			fr.ActuatorDiverged = append(fr.ActuatorDiverged, i)
		}
	}
	return fr
}

// telemetrySample condenses a PeriodRecord into the once-per-period
// telemetry snapshot.
func (h *Harness) telemetrySample(rec PeriodRecord) telemetry.PeriodSample {
	name := ""
	if h.Controller != nil {
		name = h.Controller.Name()
	}
	return telemetry.PeriodSample{
		Node:             h.TelemetryNode,
		Controller:       name,
		Period:           rec.Period,
		TimeS:            h.Server.Now(),
		SetpointW:        rec.SetpointW,
		AvgPowerW:        rec.AvgPowerW,
		TruePowerW:       rec.TrueAvgPowerW,
		EnergyJ:          rec.EnergyJ,
		CPUFreqGHz:       rec.CPUFreqGHz,
		GPUFreqMHz:       rec.GPUFreqMHz,
		GPULatencyS:      rec.GPULatencyS,
		GPUPhasePrefill:  rec.GPUPhasePrefill,
		GPUQueueDepth:    rec.GPUQueueDepth,
		SLOMiss:          rec.SLOMiss,
		MeterStale:       rec.MeterStale,
		Degraded:         rec.Degraded,
		FailSafe:         rec.FailSafe,
		Uncontrolled:     rec.Uncontrolled,
		ActuatorRetries:  rec.ActuatorRetries,
		ActuatorDiverged: rec.ActuatorDiverged,
		Faults:           rec.Faults,
		Class:            h.WorkloadClass,
		Epoch:            h.PolicyEpoch,
	}
}

// Run executes the loop for the given number of control periods and
// returns one record per period.
func (h *Harness) Run(periods int) ([]PeriodRecord, error) {
	records := make([]PeriodRecord, 0, periods)
	for k := 0; k < periods; k++ {
		rec, err := h.StepPeriod(k)
		if err != nil {
			return records, err
		}
		records = append(records, rec)
	}
	return records, nil
}

// StepPeriod executes a single control period with the given index
// (the index drives the set-point, SLO and fault schedules).
// Cluster-level coordinators use this to interleave many servers'
// loops.
//
//capgpu:hotpath
func (h *Harness) StepPeriod(k int) (PeriodRecord, error) {
	if h.PeriodSeconds <= 0 {
		return PeriodRecord{}, fmt.Errorf("core: control period %d must be positive", h.PeriodSeconds)
	}
	s := h.Server
	ng := s.NumGPUs()
	if h.OnPeriodStart != nil {
		h.OnPeriodStart(k, s)
	}
	h.applyGPUFailTransitions(k)
	dropout := h.MeterDropout != nil && h.MeterDropout(k)
	var meterFault faults.Fault
	haveMeterFault := false
	spikeIdx, spikeW := -1, 0.0
	if h.Faults != nil {
		meterFault, haveMeterFault = h.Faults.MeterFaultAt(k)
		if i, d, ok := h.Faults.SpikeSample(k, h.PeriodSeconds); ok {
			spikeIdx, spikeW = i, d
		}
	}
	start := s.Now()
	setpoint := h.Setpoint(k)
	var slos []float64
	if h.SLOs != nil {
		slos = h.SLOs(k)
	}
	h.Bank.StampPeriod(k, start)
	if h.Telemetry != nil {
		h.Telemetry.Emit(telemetry.Event{TimeS: start, Period: k, Type: telemetry.EventPeriodStart,
			Node: h.TelemetryNode, Device: -1, Value: setpoint})
		h.Telemetry.BeginPhase(k, telemetry.PhaseSense)
	}

	// Advance one control period, sampling the meter each second (or
	// letting the injected fault corrupt/suppress the sample) and
	// accumulating workload statistics.
	rec := PeriodRecord{
		Period:         k,
		SetpointW:      setpoint,
		CPUFreqGHz:     s.CPUFreq(),
		GPUFreqMHz:     make([]float64, ng),
		GPUThroughput:  make([]float64, ng),
		GPULatencyS:    make([]float64, ng),
		GPUQueueDelayS: make([]float64, ng),
		GPUPowerW:      make([]float64, ng),
		SLOs:           slos,
		SLOMiss:        make([]bool, ng),
	}
	if h.Faults != nil {
		for _, f := range h.Faults.ActiveAt(k) {
			rec.Faults = append(rec.Faults, f.String())
		}
	}
	for i := 0; i < ng; i++ {
		rec.GPUFreqMHz[i] = s.GPUFreq(i)
	}
	cpuTP, cpuLat, cpuP, trueP := 0.0, 0.0, 0.0, 0.0
	energyStart := s.EnergyJ()
	for t := 0; t < h.PeriodSeconds; t++ {
		smp := s.Tick(1)
		switch {
		case dropout || (haveMeterFault && meterFault.Kind == faults.MeterDropout):
			// sample lost
		case haveMeterFault && meterFault.Kind == faults.MeterStuck:
			// The meter's ADC wedged: it reports its last value forever.
			if last, ok := h.Meter.Latest(); ok {
				h.Meter.Record(smp.TimeS, last.PowerW)
			}
		case t == spikeIdx:
			h.Meter.Record(smp.TimeS, smp.MeasuredW+spikeW)
		default:
			h.Meter.Sample(s)
		}
		if smp.MeasuredW > rec.MaxPowerW {
			rec.MaxPowerW = smp.MeasuredW
		}
		trueP += smp.TruePowerW
		for i := 0; i < ng; i++ {
			rec.GPUThroughput[i] += smp.GPUStats[i].Throughput
			rec.GPULatencyS[i] += smp.GPUStats[i].GPUBatchLatencyS
			rec.GPUQueueDelayS[i] += smp.GPUStats[i].QueueDelayS
			rec.GPUPowerW[i] += smp.GPUPowerW[i]
			if smp.GPUStats[i].LLM {
				// Lazily allocated so CNN runs (and their goldens) see
				// nil slices and zero extra work.
				if rec.GPUPhasePrefill == nil {
					rec.GPUPhasePrefill = make([]float64, ng)
					rec.GPUQueueDepth = make([]float64, ng)
				}
				rec.GPUPhasePrefill[i] += smp.GPUStats[i].PrefillShare
				rec.GPUQueueDepth[i] += smp.GPUStats[i].QueueDepth
			}
		}
		cpuTP += smp.CPUStats.Throughput
		cpuLat += smp.CPUStats.LatencyS
		cpuP += smp.CPUPowerW
	}
	inv := 1 / float64(h.PeriodSeconds)
	for i := 0; i < ng; i++ {
		rec.GPUThroughput[i] *= inv
		rec.GPULatencyS[i] *= inv
		rec.GPUQueueDelayS[i] *= inv
		rec.GPUPowerW[i] *= inv
		if rec.GPUPhasePrefill != nil {
			rec.GPUPhasePrefill[i] *= inv
			rec.GPUQueueDepth[i] *= inv
		}
		if len(slos) == ng && slos[i] > 0 && rec.GPULatencyS[i] > slos[i] {
			rec.SLOMiss[i] = true
		}
	}
	rec.CPUThroughput = cpuTP * inv
	rec.CPULatencyS = cpuLat * inv
	rec.CPUPowerW = cpuP * inv
	rec.TrueAvgPowerW = trueP * inv
	rec.EnergyJ = s.EnergyJ() - energyStart
	if h.Telemetry != nil {
		h.Telemetry.EndPhase(k, telemetry.PhaseSense)
		h.Telemetry.BeginPhase(k, telemetry.PhaseCondense)
	}

	// Condense the meter window and run the degradation state machine:
	// fresh reading → use it; blind (no samples, or stuck-value
	// detection fired) → ride the last good value, and after
	// FailSafeAfter consecutive blind periods step toward f_min so the
	// cap cannot be violated while the loop cannot see.
	avg, fresh := h.condenseMeter(start)
	failSafe := false
	if fresh {
		h.stale = 0
		h.lastGoodAvgW = avg
		h.haveGoodAvg = true
	} else {
		h.stale++
		if h.Degrade.Disable {
			// Raw mode (the R1 strawman): an empty window reads as 0 W,
			// which slams every clock up — the failure the fallback
			// exists to prevent.
			if math.IsNaN(avg) {
				avg = 0
			}
		} else {
			rec.Degraded = true
			if h.haveGoodAvg {
				avg = h.lastGoodAvgW
			} else {
				avg = setpoint // best available prior before any sample
			}
			guard := h.Degrade.StaleGuardW
			if guard == 0 {
				guard = 8
			} else if guard < 0 {
				guard = 0
			}
			avg += guard * float64(h.stale)
			after := h.Degrade.FailSafeAfter
			if after <= 0 {
				after = 3
			}
			failSafe = h.stale >= after
		}
	}
	rec.AvgPowerW = avg
	rec.MeterStale = h.stale
	rec.FailSafe = failSafe
	if h.Telemetry != nil {
		h.Telemetry.EndPhase(k, telemetry.PhaseCondense)
		h.Telemetry.BeginPhase(k, telemetry.PhaseDecide)
	}

	var dec Decision
	if failSafe {
		dec = h.failSafeDecision(rec)
	} else {
		// Build the observation and let the controller decide. Its
		// derived vectors live in harness scratch: Observation is only
		// read during the Decide call, so the buffers are free again by
		// the next period.
		h.obsTPNorm = growFloats(h.obsTPNorm, ng)
		h.obsUtil = growFloats(h.obsUtil, ng)
		obs := Observation{
			Period:            k,
			TimeS:             s.Now(),
			AvgPowerW:         avg,
			SetpointW:         setpoint,
			CPUFreqGHz:        s.CPUFreq(),
			GPUFreqMHz:        rec.GPUFreqMHz,
			GPUThroughputNorm: h.obsTPNorm,
			GPUUtil:           h.obsUtil,
			GPULatencyS:       rec.GPULatencyS,
			GPUPhasePrefill:   rec.GPUPhasePrefill,
			CPUPowerW:         rec.CPUPowerW,
			GPUPowerW:         rec.GPUPowerW,
			SLOs:              slos,
			MeterStale:        h.stale,
			Degraded:          rec.Degraded,
		}
		last := s.Last()
		obs.CPUUtil = last.CPUUtil
		for i := 0; i < ng; i++ {
			obs.GPUUtil[i] = last.GPUUtil[i]
			obs.GPUThroughputNorm[i] = 0 // scratch may hold last period's value
			if w := s.Workload(i); w != nil && w.MaxThroughput() > 0 {
				obs.GPUThroughputNorm[i] = clamp01(rec.GPUThroughput[i] / w.MaxThroughput())
			}
		}
		if w := s.CPUWorkload(); w != nil && w.MaxThroughput() > 0 {
			obs.CPUThroughputNorm = clamp01(rec.CPUThroughput / w.MaxThroughput())
		}
		dec = h.Controller.Decide(obs)
	}
	rec.Decision = dec
	if h.Telemetry != nil {
		h.Telemetry.EndPhase(k, telemetry.PhaseDecide)
		h.Telemetry.BeginPhase(k, telemetry.PhaseActuate)
	}

	// Resolve fractional targets through the modulators and apply with
	// read-back verification (faults may drop or clamp any command).
	h.applyTgt = growFloats(h.applyTgt, 1+ng)
	targets := h.applyTgt
	targets[0] = dec.CPUFreqGHz
	copy(targets[1:], dec.GPUFreqMHz)
	retries := h.ActuatorRetries
	if retries == 0 {
		retries = 2
	} else if retries < 0 {
		retries = 0
	}
	report, err := h.Bank.ApplyVerified(targets, h.applier(k), retries)
	if err != nil {
		return rec, fmt.Errorf("core: period %d: %w", k, err)
	}
	if h.Telemetry != nil {
		h.Telemetry.EndPhase(k, telemetry.PhaseActuate)
		h.Telemetry.BeginPhase(k, telemetry.PhaseVerify)
	}
	rec.ActuatorDiverged = report.Diverged
	rec.ActuatorRetries = report.Retries
	if h.Flight != nil {
		// Record before the telemetry sample so a dump trigger fired by
		// this period's sample already sees this period's decision.
		h.Flight.Record(h.flightRecord(rec, dec))
	}
	if h.Telemetry != nil {
		h.Telemetry.EndPhase(k, telemetry.PhaseVerify)
		h.Telemetry.Period(h.telemetrySample(rec))
	}
	return rec, nil
}

// condenseMeter turns the period's meter window into (average, fresh).
// fresh is false when the window is empty or — in robust mode — when
// the stuck-value detector fires: every sample identical to each other
// AND to the previously recorded value, which genuine milliwatt-
// quantized noisy readings essentially never produce. In non-robust
// mode the average is the plain mean (bit-compatible with the
// pre-fault-injection harness); an empty window returns NaN.
func (h *Harness) condenseMeter(start float64) (float64, bool) {
	rds := h.Meter.ReadingsSince(start)
	robust := h.Faults != nil && !h.Degrade.Disable
	defer func() {
		if len(rds) > 0 {
			h.lastRawW = rds[len(rds)-1].PowerW
			h.haveRaw = true
		}
	}()
	if len(rds) == 0 {
		return math.NaN(), false
	}
	if !robust {
		sum := 0.0
		for _, r := range rds {
			sum += r.PowerW
		}
		return sum / float64(len(rds)), true
	}
	if h.haveRaw {
		stuck := true
		for _, r := range rds {
			//lint:ignore floatsafety stuck-meter detection wants bit-exact repeats, not near-equality
			if r.PowerW != h.lastRawW {
				stuck = false
				break
			}
		}
		if stuck {
			avg, _ := power.RobustAverage(rds)
			return avg, false
		}
	}
	avg, _ := power.RobustAverage(rds)
	return avg, true
}

// failSafeDecision steps every knob a fixed fraction of its range
// toward f_min — the blind-mode descent that makes cap violation
// impossible without any feedback.
func (h *Harness) failSafeDecision(cur PeriodRecord) Decision {
	frac := h.Degrade.FailSafeStep
	if frac <= 0 {
		frac = 0.25
	}
	lo, hi := h.Bank.Mod(0).Range()
	d := Decision{
		CPUFreqGHz: math.Max(cur.CPUFreqGHz-frac*(hi-lo), lo),
		GPUFreqMHz: make([]float64, len(cur.GPUFreqMHz)),
	}
	for i := range cur.GPUFreqMHz {
		lo, hi := h.Bank.Mod(1 + i).Range()
		d.GPUFreqMHz[i] = math.Max(cur.GPUFreqMHz[i]-frac*(hi-lo), lo)
	}
	return d
}

// applier returns the ApplyFunc for period k: the write path to the
// hardware, filtered through the fault schedule (lost commands leave
// the old frequency in place; a derated or failed GPU clamps or
// ignores what it is sent). The method value is built once and cached
// on the harness (with the period stashed in applyK) so the hot loop
// does not allocate a fresh closure every period.
func (h *Harness) applier(k int) actuator.ApplyFunc {
	h.applyK = k
	if h.applyFn == nil {
		h.applyFn = h.applyAt
	}
	return h.applyFn
}

// applyAt is the cached ApplyFunc body; h.applyK carries the period
// set by applier just before the bank calls it.
func (h *Harness) applyAt(dev, attempt int, level float64) float64 {
	k, s := h.applyK, h.Server
	if dev > 0 {
		g := dev - 1
		if h.Faults.GPUFailedAt(k, g) {
			return s.GPUFreq(g) // offline: command ignored
		}
		if frac, ok := h.Faults.GPUDerateAt(k, g); ok {
			gmin, gmax := h.Bank.Mod(dev).Range()
			dmax := math.Max(frac*gmax, gmin)
			if level > dmax {
				level = dmax
			}
		}
	}
	if h.Faults.ActuatorLostAt(k, dev, attempt) {
		if dev == 0 {
			return s.CPUFreq()
		}
		return s.GPUFreq(dev - 1)
	}
	if dev == 0 {
		return s.SetCPUFreq(level)
	}
	v, _ := s.SetGPUFreq(dev-1, level)
	return v
}

// applyGPUFailTransitions detaches a failing GPU's pipeline (and pins
// its clock to f_min) on fault entry, and re-attaches it on recovery.
func (h *Harness) applyGPUFailTransitions(k int) {
	if h.Faults == nil || h.Faults.Empty() {
		return
	}
	s := h.Server
	ng := s.NumGPUs()
	if h.gpuFailed == nil {
		h.gpuFailed = make([]bool, ng)
		h.stashedPipes = make([]workload.GPUWorkload, ng)
	}
	for i := 0; i < ng; i++ {
		failed := h.Faults.GPUFailedAt(k, i)
		switch {
		case failed && !h.gpuFailed[i]:
			h.stashedPipes[i] = s.Workload(i)
			_ = s.AttachWorkload(i, nil)
			gmin, _ := h.Bank.Mod(1 + i).Range()
			_, _ = s.SetGPUFreq(i, gmin)
			h.gpuFailed[i] = true
		case !failed && h.gpuFailed[i]:
			_ = s.AttachWorkload(i, h.stashedPipes[i])
			h.stashedPipes[i] = nil
			h.gpuFailed[i] = false
		}
	}
}

// StepUncontrolled advances one control period with no measurement and
// no control action — the state a rack node is in when it has dropped
// out of coordination: frequencies frozen at their last applied
// levels, workloads still running, power still drawn. The record's
// AvgPowerW is the true period average (what the rack PDU sees), since
// no meter reading was taken.
func (h *Harness) StepUncontrolled(k int) (PeriodRecord, error) {
	if h.PeriodSeconds <= 0 {
		return PeriodRecord{}, fmt.Errorf("core: control period %d must be positive", h.PeriodSeconds)
	}
	s := h.Server
	ng := s.NumGPUs()
	rec := PeriodRecord{
		Period:         k,
		SetpointW:      h.Setpoint(k),
		CPUFreqGHz:     s.CPUFreq(),
		GPUFreqMHz:     make([]float64, ng),
		GPUThroughput:  make([]float64, ng),
		GPULatencyS:    make([]float64, ng),
		GPUQueueDelayS: make([]float64, ng),
		GPUPowerW:      make([]float64, ng),
		SLOMiss:        make([]bool, ng),
		Uncontrolled:   true,
	}
	for i := 0; i < ng; i++ {
		rec.GPUFreqMHz[i] = s.GPUFreq(i)
	}
	trueP, cpuTP, cpuLat, cpuP := 0.0, 0.0, 0.0, 0.0
	energyStart := s.EnergyJ()
	for t := 0; t < h.PeriodSeconds; t++ {
		smp := s.Tick(1)
		if smp.MeasuredW > rec.MaxPowerW {
			rec.MaxPowerW = smp.MeasuredW
		}
		trueP += smp.TruePowerW
		for i := 0; i < ng; i++ {
			rec.GPUThroughput[i] += smp.GPUStats[i].Throughput
			rec.GPULatencyS[i] += smp.GPUStats[i].GPUBatchLatencyS
			rec.GPUQueueDelayS[i] += smp.GPUStats[i].QueueDelayS
			rec.GPUPowerW[i] += smp.GPUPowerW[i]
			if smp.GPUStats[i].LLM {
				if rec.GPUPhasePrefill == nil {
					rec.GPUPhasePrefill = make([]float64, ng)
					rec.GPUQueueDepth = make([]float64, ng)
				}
				rec.GPUPhasePrefill[i] += smp.GPUStats[i].PrefillShare
				rec.GPUQueueDepth[i] += smp.GPUStats[i].QueueDepth
			}
		}
		cpuTP += smp.CPUStats.Throughput
		cpuLat += smp.CPUStats.LatencyS
		cpuP += smp.CPUPowerW
	}
	inv := 1 / float64(h.PeriodSeconds)
	for i := 0; i < ng; i++ {
		rec.GPUThroughput[i] *= inv
		rec.GPULatencyS[i] *= inv
		rec.GPUQueueDelayS[i] *= inv
		rec.GPUPowerW[i] *= inv
		if rec.GPUPhasePrefill != nil {
			rec.GPUPhasePrefill[i] *= inv
			rec.GPUQueueDepth[i] *= inv
		}
	}
	rec.CPUThroughput = cpuTP * inv
	rec.CPULatencyS = cpuLat * inv
	rec.CPUPowerW = cpuP * inv
	rec.TrueAvgPowerW = trueP * inv
	rec.AvgPowerW = rec.TrueAvgPowerW
	rec.EnergyJ = s.EnergyJ() - energyStart
	if h.Flight != nil {
		// No decision exists on an open-loop period; the record freezes
		// the frequencies the node is stuck at.
		h.Flight.Record(h.flightRecord(rec, Decision{
			CPUFreqGHz: rec.CPUFreqGHz,
			GPUFreqMHz: rec.GPUFreqMHz,
		}))
	}
	if h.Telemetry != nil {
		h.Telemetry.Period(h.telemetrySample(rec))
	}
	return rec, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
