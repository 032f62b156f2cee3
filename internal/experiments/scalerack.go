package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sysid"
	"repro/internal/workload"
)

// This file scales the E3x rack from the 3-server showcase to the
// fleet sizes the parallel coordinator exists for (capgpu-rack
// -nodes N -workers W, BenchmarkRackStep). Running a full system
// identification per node would dominate fleet construction at
// hundreds of nodes, so the fleet identifies one power model per
// workload class (heavy / medium / light — 3 / 2 / 1 busy pipelines)
// on a twin and shares the *identified coefficients* across that
// class's nodes; every node still owns its private seeded server,
// pipelines, controller, and model copy, so node loops stay fully
// independent between reallocation barriers.

// scaleClasses is the per-class workload template, cycled across the
// fleet (node i gets class i%3).
var scaleClasses = []struct {
	name      string
	pipelines int
	priority  int
}{
	{"heavy", 3, 2}, {"medium", 2, 1}, {"light", 1, 0},
}

// DefaultNodeBudgetW is the per-node share used when a fleet budget is
// not given explicitly: the 3-node rack's standard 2850 W breaker
// divided by its 3 servers.
const DefaultNodeBudgetW = 950

// scaleServer builds one class instance of the evaluation server.
func scaleServer(seed int64, pipelines int) (*sim.Server, error) {
	s, err := sim.NewServer(sim.DefaultTestbed(seed))
	if err != nil {
		return nil, err
	}
	cfgs := evalPipelineConfigs(seed)
	for i := 0; i < pipelines && i < len(cfgs); i++ {
		p, err := workload.NewPipeline(cfgs[i])
		if err != nil {
			return nil, err
		}
		if err := s.AttachPipeline(i, p); err != nil {
			return nil, err
		}
	}
	w, err := workload.NewCPUWorkload(workload.CPUWorkloadConfig{
		RateAtMax: 40, FcMax: 2.4, NoiseStd: 0.02, Seed: seed + 9})
	if err != nil {
		return nil, err
	}
	s.AttachCPUWorkload(w)
	return s, nil
}

// scaleLLMServer builds one class instance of the LLM serving server:
// the first `pipelines` GPUs run the default serving mix (cycled), the
// rest idle — the same heavy/medium/light shape as the CNN fleet.
func scaleLLMServer(seed int64, pipelines int) (*sim.Server, error) {
	s, err := sim.NewServer(sim.DefaultTestbed(seed))
	if err != nil {
		return nil, err
	}
	specs, err := workload.ParseLLMSpecs(DefaultLLMSpecDSL)
	if err != nil {
		return nil, err
	}
	cfgs, err := llmConfigsFor(specs, seed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < pipelines && i < s.NumGPUs(); i++ {
		cfg := cfgs[i%len(cfgs)]
		cfg.Seed = seed + int64(i) + 1
		p, err := workload.NewLLMPipeline(cfg)
		if err != nil {
			return nil, err
		}
		if err := s.AttachWorkload(i, p); err != nil {
			return nil, err
		}
	}
	w, err := workload.NewCPUWorkload(workload.CPUWorkloadConfig{
		RateAtMax: 40, FcMax: 2.4, NoiseStd: 0.02, Seed: seed + 9})
	if err != nil {
		return nil, err
	}
	s.AttachCPUWorkload(w)
	return s, nil
}

// scaleClassServer dispatches on the fleet workload family.
func scaleClassServer(kind string, seed int64, pipelines int) (*sim.Server, error) {
	switch kind {
	case "", "cnn":
		return scaleServer(seed, pipelines)
	case "llm":
		return scaleLLMServer(seed, pipelines)
	default:
		return nil, fmt.Errorf("experiments: unknown fleet workload family %q (want cnn or llm)", kind)
	}
}

// NewScaleFleet builds a synthetic CNN fleet of n nodes named n000,
// n001, … cycling through the heavy/medium/light workload classes.
func NewScaleFleet(seed int64, n int) ([]*cluster.Node, error) {
	return NewScaleFleetWorkload(seed, n, "")
}

// NewScaleFleetWorkload is NewScaleFleet with a workload family:
// "" or "cnn" for the CNN pipelines, "llm" for the continuous-batching
// LLM serving pipelines. Each node's server and pipelines are seeded
// from the fleet seed plus the node index, so no two nodes share an
// RNG stream.
func NewScaleFleetWorkload(seed int64, n int, kind string) ([]*cluster.Node, error) {
	if n <= 0 {
		return nil, fmt.Errorf("experiments: fleet size %d must be positive", n)
	}
	// One identification per class, on a twin seeded away from every
	// fleet member.
	models := make([]*sysid.Model, len(scaleClasses))
	for c, cls := range scaleClasses {
		twin, err := scaleClassServer(kind, seed+5000+int64(c), cls.pipelines)
		if err != nil {
			return nil, err
		}
		if kind == "llm" {
			// Identify in the prefill-shaped partial-load regime, exactly
			// as NewLLMRig does: at mixed nominal load the utilization
			// adaptation can cancel (or invert) the power-frequency slope.
			for i := 0; i < twin.NumGPUs(); i++ {
				if lp, ok := twin.Workload(i).(*workload.LLMPipeline); ok {
					lp.SetOutputScale(llmPrefillOutScale)
					lp.SetArrivalScale(llmIdentArrScale)
				}
			}
		}
		m, _, err := sysid.Identify(twin, sysid.ExciteConfig{})
		if err != nil {
			return nil, err
		}
		models[c] = m
	}
	nodes := make([]*cluster.Node, 0, n)
	for i := 0; i < n; i++ {
		cls := scaleClasses[i%len(scaleClasses)]
		s, err := scaleClassServer(kind, seed+int64(i)*37, cls.pipelines)
		if err != nil {
			return nil, err
		}
		// Private model copy: controllers may adapt gains in place, and
		// shared coefficients would couple the node loops.
		m := *models[i%len(scaleClasses)]
		m.Gains = append([]float64(nil), m.Gains...)
		ctrl, err := core.NewCapGPU(&m, s, nil, core.Options{})
		if err != nil {
			return nil, err
		}
		node, err := cluster.NewNode(fmt.Sprintf("n%03d", i), s, ctrl, cls.priority)
		if err != nil {
			return nil, err
		}
		node.Harness().WorkloadClass = cls.name
		nodes = append(nodes, node)
	}
	return nodes, nil
}

// NewScaleCoordinator builds a ready-to-run coordinator over a
// synthetic fleet of n nodes: policy allocation under a fixed breaker
// budget (budgetW <= 0 defaults to DefaultNodeBudgetW per node), the
// optional rack-plane fault schedule and telemetry hub from opts wired
// exactly as the 3-node rack wires them (per-node "<policy>/<node>"
// labels), and Workers set from opts.
func NewScaleCoordinator(seed int64, n int, policy cluster.Policy, budgetW float64, opts ClusterOptions) (*cluster.Coordinator, error) {
	if policy == nil {
		policy = cluster.DemandProportional{}
	}
	if budgetW <= 0 {
		budgetW = DefaultNodeBudgetW * float64(n)
	}
	nodes, err := NewScaleFleetWorkload(seed, n, opts.Workload)
	if err != nil {
		return nil, err
	}
	for _, node := range nodes {
		label := policy.Name() + "/" + node.Name
		if opts.Faults != nil {
			node.SetFaults(opts.Faults)
		}
		if opts.Telemetry != nil {
			node.Harness().SetTelemetry(opts.Telemetry, label)
		}
		if opts.Flight != nil {
			if rec := opts.Flight(label); rec != nil {
				node.Harness().SetFlight(rec)
			}
		}
	}
	coord, err := cluster.NewCoordinator(nodes, policy, func(int) float64 { return budgetW })
	if err != nil {
		return nil, err
	}
	coord.Faults = opts.Faults
	coord.Workers = opts.Workers
	if opts.Telemetry != nil {
		coord.Telemetry = opts.Telemetry.NodeSink(policy.Name())
	}
	return coord, nil
}

// ScaleRackRow condenses a fleet run for capgpu-rack's -nodes mode:
// per-node tables stop scaling at hundreds of nodes, so the fleet
// reports rack-level aggregates plus health counts.
type ScaleRackRow struct {
	Policy            string
	Nodes             int
	Workers           int
	BudgetW           float64
	SteadyTotalW      float64
	OverBudgetPeriods int
	AggThroughput     float64
	DeadNodes         int // nodes dead at end of run
	CapViolations     int // summed over nodes
	DegradedPeriods   int // summed over nodes
	Uncontrolled      int // open-loop node-periods
}

// RunScaleRack builds and runs a synthetic fleet for the given number
// of periods and summarizes it.
func RunScaleRack(seed int64, periods, n int, policy cluster.Policy, budgetW float64, opts ClusterOptions) (*ScaleRackRow, error) {
	if periods <= 0 {
		periods = 60
	}
	coord, err := NewScaleCoordinator(seed, n, policy, budgetW, opts)
	if err != nil {
		return nil, err
	}
	if err := coord.Run(periods); err != nil {
		return nil, fmt.Errorf("experiments: scale rack %s: %w", coord.Policy.Name(), err)
	}
	budget := coord.BudgetW(0)
	total := coord.TotalPowerSeries()
	steady := total[periods/2:]
	mean, over := 0.0, 0
	for _, p := range steady {
		mean += p
		if p > budget*1.015 {
			over++
		}
	}
	row := &ScaleRackRow{
		Policy:            coord.Policy.Name(),
		Nodes:             n,
		Workers:           opts.Workers,
		BudgetW:           budget,
		SteadyTotalW:      mean / float64(len(steady)),
		OverBudgetPeriods: over,
		AggThroughput:     coord.AggregateThroughput(periods / 2),
	}
	for i, node := range coord.Nodes {
		if coord.NodeDead(i) {
			row.DeadNodes++
		}
		s := SummarizeNode(node.Name, node.Records())
		row.CapViolations += s.CapViolations
		row.DegradedPeriods += s.DegradedPeriods
		row.Uncontrolled += s.UncontrolledPeriods
	}
	return row, nil
}
