package experiments

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sysid"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// The experiments in this file go beyond the paper's evaluation, along
// directions its text explicitly opens:
//
//   - E1x adaptive identification: §4.4 proves stability under bounded
//     gain error; the adaptive extension *removes* the error online with
//     recursive least squares.
//   - E2x infeasible caps: §4.4's closing paragraph — "additional system
//     mechanisms (e.g., memory throttling) must be integrated. Exploring
//     such multi-layer adaptations is part of our future work."
//   - E3x rack-level capping: the introduction's oversubscription story
//     (Dynamo, priority-aware capping) with CapGPU as the per-server
//     enforcement layer.

// AdaptiveRow is one configuration of the adaptive-identification study.
type AdaptiveRow struct {
	Config string
	// PredRMSEPost is the RMSE of the controller model's one-period
	// power prediction after the workload change.
	PredRMSEPost float64
	// PowerRMSEPost is the control tracking RMSE after the change.
	PowerRMSEPost float64
	// CPUGainEnd / GPUGainEnd record where the (possibly adapted) model
	// ended up, for inspection.
	GainsEnd []float64
}

// ExtensionAdaptive runs CapGPU with a static vs an RLS-adapted model
// through a mid-run workload change (two GPUs' inference jobs complete
// at period 40, collapsing their utilization and with it the true
// power-frequency slope). The adaptive model re-identifies online.
func ExtensionAdaptive(seed int64, periods int) ([]AdaptiveRow, error) {
	if periods <= 0 {
		periods = 100
	}
	const changeAt = 40
	run := func(adaptive bool) (*AdaptiveRow, error) {
		rig, err := NewEvaluationRig(seed)
		if err != nil {
			return nil, err
		}
		ctrl, err := core.NewCapGPU(rig.Model, rig.Server, rig.LatencyModels, core.Options{Adaptive: adaptive})
		if err != nil {
			return nil, err
		}
		h, err := core.NewHarness(rig.Server, ctrl, FixedSetpoint(900))
		if err != nil {
			return nil, err
		}
		h.OnPeriodStart = func(k int, s *sim.Server) {
			if k == changeAt {
				_ = s.AttachPipeline(1, nil)
				_ = s.AttachPipeline(2, nil)
			}
		}
		recs, err := h.Run(periods)
		if err != nil {
			return nil, err
		}
		// One-period-ahead prediction error of the controller's model
		// after the change: predict p(k) from F(k) applied and compare.
		var predSE, powSE, n float64
		for _, r := range recs {
			if r.Period < changeAt+5 {
				continue
			}
			m := ctrl.CurrentModel()
			pred := m.Gains[0]*r.CPUFreqGHz + m.Offset
			for i, f := range r.GPUFreqMHz {
				pred += m.Gains[1+i] * f
			}
			d := pred - r.AvgPowerW
			predSE += d * d
			e := r.AvgPowerW - 900
			powSE += e * e
			n++
		}
		name := "static model"
		if adaptive {
			name = "adaptive (RLS)"
		}
		return &AdaptiveRow{
			Config:        name,
			PredRMSEPost:  math.Sqrt(predSE / n),
			PowerRMSEPost: math.Sqrt(powSE / n),
			GainsEnd:      ctrl.CurrentGains(),
		}, nil
	}
	static, err := run(false)
	if err != nil {
		return nil, err
	}
	adaptive, err := run(true)
	if err != nil {
		return nil, err
	}
	return []AdaptiveRow{*static, *adaptive}, nil
}

// InfeasibleRow is one controller's behavior at a cap below the
// frequency-only power floor.
type InfeasibleRow struct {
	Config       string
	CapW         float64
	SteadyMeanW  float64
	SteadyErrW   float64
	ThrottlesEnd int
}

// ExtensionInfeasibleCap compares frequency-only CapGPU against the
// multi-layer (memory-throttling) extension at a set point 30 W below
// the server's frequency-only floor.
func ExtensionInfeasibleCap(seed int64, periods int) ([]InfeasibleRow, error) {
	if periods <= 0 {
		periods = 60
	}
	// Measure the true frequency-only floor empirically on a twin (the
	// analytic PowerRange assumes full utilization, which overestimates
	// the floor by the CPU's idle-fraction power).
	floorRig, err := NewEvaluationRig(seed)
	if err != nil {
		return nil, err
	}
	fs := floorRig.Server
	fs.SetCPUFreq(fs.Config().CPU.FreqMinGHz)
	for i := 0; i < fs.NumGPUs(); i++ {
		if _, err := fs.SetGPUFreq(i, fs.Config().GPUs[i].FreqMinMHz); err != nil {
			return nil, err
		}
	}
	// Average long enough for the AR(1) thermal drift (±14 W std) to
	// wash out of the estimate.
	floor := 0.0
	const floorTicks = 400
	for k := 0; k < floorTicks; k++ {
		floor += fs.Tick(1).TruePowerW
	}
	floor /= floorTicks

	run := func(multilayer bool) (*InfeasibleRow, error) {
		rig, err := NewEvaluationRig(seed)
		if err != nil {
			return nil, err
		}
		capW := floor - 30
		inner, err := core.NewCapGPU(rig.Model, rig.Server, rig.LatencyModels, core.Options{})
		if err != nil {
			return nil, err
		}
		var ctrl core.PowerController = inner
		var ml *core.MultiLayer
		if multilayer {
			ml, err = core.NewMultiLayer(inner, rig.Server, rig.Model.Gains)
			if err != nil {
				return nil, err
			}
			ctrl = ml
		}
		h, err := core.NewHarness(rig.Server, ctrl, FixedSetpoint(capW))
		if err != nil {
			return nil, err
		}
		recs, err := h.Run(periods)
		if err != nil {
			return nil, err
		}
		var tail []float64
		for _, r := range recs[periods/2:] {
			tail = append(tail, r.AvgPowerW)
		}
		row := &InfeasibleRow{
			Config:      "frequency-only CapGPU",
			CapW:        capW,
			SteadyMeanW: metrics.Mean(tail),
		}
		row.SteadyErrW = row.SteadyMeanW - capW
		if multilayer {
			row.Config = "CapGPU + mem-throttle"
			row.ThrottlesEnd = len(ml.ThrottledGPUs())
		}
		return row, nil
	}
	freq, err := run(false)
	if err != nil {
		return nil, err
	}
	multi, err := run(true)
	if err != nil {
		return nil, err
	}
	return []InfeasibleRow{*freq, *multi}, nil
}

// ClusterRow is one allocation policy's rack-level outcome.
type ClusterRow struct {
	Policy            string
	BudgetW           float64
	SteadyTotalW      float64
	OverBudgetPeriods int     // periods above budget (steady state)
	AggThroughput     float64 // rack img/s
	PerNodeCapW       []float64
	// Nodes holds the per-node end-of-run telemetry summary, in node
	// order (capgpu-rack renders it as a table).
	Nodes []NodeSummary
}

// NodeSummary condenses one node's control-loop health for the rack's
// end-of-run telemetry table.
type NodeSummary struct {
	Name                string
	Periods             int
	CapViolations       int // periods with AvgPowerW above cap + 1% slack
	SLOMisses           int // GPU-periods over the latency SLO
	DegradedPeriods     int // periods on the last-good-value fallback
	FailSafeEntries     int // transitions into the blind descent
	UncontrolledPeriods int // open-loop periods (out of rack contact)
}

// SummarizeNode builds a NodeSummary from a node's period records,
// using the same 1% violation slack as the telemetry hub and the
// metrics summary so all three agree.
func SummarizeNode(name string, recs []core.PeriodRecord) NodeSummary {
	out := NodeSummary{Name: name, Periods: len(recs)}
	prevFailSafe := false
	for _, r := range recs {
		if r.SetpointW > 0 && r.AvgPowerW > r.SetpointW*1.01 {
			out.CapViolations++
		}
		for _, m := range r.SLOMiss {
			if m {
				out.SLOMisses++
			}
		}
		if r.Degraded {
			out.DegradedPeriods++
		}
		if r.FailSafe && !prevFailSafe {
			out.FailSafeEntries++
		}
		prevFailSafe = r.FailSafe
		if r.Uncontrolled {
			out.UncontrolledPeriods++
		}
	}
	return out
}

// ClusterOptions tunes ExtensionClusterOpts beyond the defaults.
type ClusterOptions struct {
	// Telemetry, when non-nil, instruments every node's loop and the
	// coordinator. Node-scoped telemetry — the harness loops and the
	// coordinator's death/recovery events — is labeled "<policy>/<node>"
	// so the three policy passes do not collide inside one hub and the
	// rack events join the per-node loop metrics.
	Telemetry *telemetry.Hub
	// Faults carries the rack-plane fault schedule (server-dropout
	// entries, target = node index, drive heartbeat misses).
	Faults *faults.Schedule
	// Workers sets cluster.Coordinator.Workers: the fan-out width for
	// per-node stepping (0 = GOMAXPROCS, 1 = sequential). Any value
	// yields the byte-identical run.
	Workers int
	// Workload selects the fleet workload family for the scale rack:
	// "" or "cnn" builds the CNN pipelines, "llm" the continuous-
	// batching LLM serving pipelines (heavy/medium/light = 3/2/1 busy
	// GPUs either way). Only NewScaleCoordinator consumes this; the
	// 3-server showcase rack is CNN-only.
	Workload string
	// Flight, when non-nil, is called once per node with the node's
	// telemetry label ("<policy>/<node>") and may return a flight
	// recorder to attach to that node's harness (nil = leave the node
	// unrecorded). One recorder per node: recorders are single-loop
	// objects and must not be shared across nodes.
	Flight func(label string) *flight.Recorder
}

// clusterNode builds one managed server with the given pipeline count.
func clusterNode(name string, seed int64, nPipelines, priority int) (*cluster.Node, error) {
	build := func(sd int64) (*sim.Server, error) {
		s, err := sim.NewServer(sim.DefaultTestbed(sd))
		if err != nil {
			return nil, err
		}
		cfgs := evalPipelineConfigs(sd)
		for i := 0; i < nPipelines && i < len(cfgs); i++ {
			p, err := workload.NewPipeline(cfgs[i])
			if err != nil {
				return nil, err
			}
			if err := s.AttachPipeline(i, p); err != nil {
				return nil, err
			}
		}
		w, err := workload.NewCPUWorkload(workload.CPUWorkloadConfig{
			RateAtMax: 40, FcMax: 2.4, NoiseStd: 0.02, Seed: sd + 9})
		if err != nil {
			return nil, err
		}
		s.AttachCPUWorkload(w)
		return s, nil
	}
	twin, err := build(seed + 5000)
	if err != nil {
		return nil, err
	}
	model, _, err := sysid.Identify(twin, sysid.ExciteConfig{})
	if err != nil {
		return nil, err
	}
	s, err := build(seed)
	if err != nil {
		return nil, err
	}
	ctrl, err := core.NewCapGPU(model, s, nil, core.Options{})
	if err != nil {
		return nil, err
	}
	return cluster.NewNode(name, s, ctrl, priority)
}

// ExtensionCluster runs a 3-server rack (heavy / medium / light load)
// under a shared budget with each allocation policy.
func ExtensionCluster(seed int64, periods int, budgetW float64) ([]ClusterRow, error) {
	return ExtensionClusterOpts(seed, periods, budgetW, ClusterOptions{})
}

// ExtensionClusterOpts is ExtensionCluster with telemetry and a
// rack-plane fault schedule attached.
func ExtensionClusterOpts(seed int64, periods int, budgetW float64, opts ClusterOptions) ([]ClusterRow, error) {
	if periods <= 0 {
		periods = 60
	}
	if budgetW <= 0 {
		budgetW = 2850
	}
	policies := []cluster.Policy{cluster.Uniform{}, cluster.DemandProportional{}, cluster.Priority{}}
	var rows []ClusterRow
	for _, pol := range policies {
		nodes := make([]*cluster.Node, 0, 3)
		for i, spec := range []struct {
			name      string
			pipelines int
			priority  int
		}{
			{"heavy", 3, 2}, {"medium", 2, 1}, {"light", 1, 0},
		} {
			n, err := clusterNode(spec.name, seed+int64(10*i), spec.pipelines, spec.priority)
			if err != nil {
				return nil, err
			}
			if opts.Telemetry != nil {
				n.Harness().SetTelemetry(opts.Telemetry, pol.Name()+"/"+spec.name)
			}
			if opts.Flight != nil {
				if rec := opts.Flight(pol.Name() + "/" + spec.name); rec != nil {
					n.Harness().SetFlight(rec)
				}
			}
			nodes = append(nodes, n)
		}
		coord, err := cluster.NewCoordinator(nodes, pol, func(int) float64 { return budgetW })
		if err != nil {
			return nil, err
		}
		coord.Faults = opts.Faults
		coord.Workers = opts.Workers
		if opts.Telemetry != nil {
			coord.Telemetry = opts.Telemetry.NodeSink(pol.Name())
		}
		if err := coord.Run(periods); err != nil {
			return nil, fmt.Errorf("experiments: cluster %s: %w", pol.Name(), err)
		}
		total := coord.TotalPowerSeries()
		steady := total[periods/2:]
		over := 0
		for _, p := range steady {
			if p > budgetW*1.015 {
				over++
			}
		}
		caps := make([]float64, len(nodes))
		sums := make([]NodeSummary, len(nodes))
		for i, n := range nodes {
			caps[i] = n.Assigned()
			sums[i] = SummarizeNode(n.Name, n.Records())
		}
		rows = append(rows, ClusterRow{
			Policy:            pol.Name(),
			BudgetW:           budgetW,
			SteadyTotalW:      metrics.Mean(steady),
			OverBudgetPeriods: over,
			AggThroughput:     coord.AggregateThroughput(periods / 2),
			PerNodeCapW:       caps,
			Nodes:             sums,
		})
	}
	return rows, nil
}

// BatchRow is one configuration of the dynamic-batching study.
type BatchRow struct {
	Config     string
	SLOMs      float64 // the unreachable SLO, milliseconds
	MissRate   float64 // steady-state miss rate on the constrained GPU
	Throughput float64 // that GPU's steady-state throughput (img/s)
	FinalBatch int
}

// ExtensionBatchSLO evaluates the dynamic-batching knob (coordinated
// batching + DVFS, after the paper's cited Nabavinejad et al.): GPU 0's
// SLO is set below its full-batch latency floor — no clock can reach it
// — and the BatchAdapter shrinks the batch until it can, trading
// throughput efficiency for feasibility.
func ExtensionBatchSLO(seed int64, periods int) ([]BatchRow, error) {
	if periods <= 0 {
		periods = 60
	}
	zoo := workload.Zoo()
	profs := []workload.ModelProfile{zoo["resnet50"], zoo["swin_t"], zoo["vgg16"]}
	slos := []float64{0.6 * profs[0].EMinBatch, 4 * profs[1].EMinBatch, 4 * profs[2].EMinBatch}

	run := func(withBatching bool) (*BatchRow, error) {
		rig, err := NewEvaluationRig(seed)
		if err != nil {
			return nil, err
		}
		inner, err := core.NewCapGPU(rig.Model, rig.Server, rig.LatencyModels, core.Options{})
		if err != nil {
			return nil, err
		}
		var ctrl core.PowerController = inner
		var ba *core.BatchAdapter
		if withBatching {
			ba, err = core.NewBatchAdapter(inner, rig.Server, rig.LatencyModels, profs)
			if err != nil {
				return nil, err
			}
			ctrl = ba
		}
		h, err := core.NewHarness(rig.Server, ctrl, FixedSetpoint(1000))
		if err != nil {
			return nil, err
		}
		h.SLOs = func(int) []float64 { return slos }
		recs, err := h.Run(periods)
		if err != nil {
			return nil, err
		}
		var misses []bool
		tput, n := 0.0, 0.0
		for _, r := range recs[periods/3:] {
			misses = append(misses, r.SLOMiss[0])
			tput += r.GPUThroughput[0]
			n++
		}
		row := &BatchRow{
			Config:     "fixed batch (CapGPU)",
			SLOMs:      slos[0] * 1000,
			MissRate:   metrics.MissRate(misses),
			Throughput: tput / n,
			FinalBatch: profs[0].BatchSize,
		}
		if withBatching {
			row.Config = "CapGPU + batching"
			row.FinalBatch = ba.BatchSizes()[0]
		}
		return row, nil
	}
	fixed, err := run(false)
	if err != nil {
		return nil, err
	}
	adaptive, err := run(true)
	if err != nil {
		return nil, err
	}
	return []BatchRow{*fixed, *adaptive}, nil
}
