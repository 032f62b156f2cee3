// Command perfbench is the repository's benchmark. It runs one named
// workload of the CapGPU control loop for a fixed time from a seed,
// checks the outputs, and prints every end-to-end metric by name with
// its unit; with -trace 1 it instead prints the per-layer metrics of a
// traced run. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root, which builds it:
//
//	bash perfbench/run.sh --workload fleet-cnn-1k --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

const (
	// warmupEpisodes are run and checked but left out of the host
	// timings: they pay for first-touch heap growth and cold caches.
	warmupEpisodes = 1
	// maxRun bounds a run that is still short of tail samples.
	maxRun = 150 * time.Second
	// tailQ is the reported tail percentile of the host period time.
	tailQ = 99
)

func main() {
	name := flag.String("workload", "", "workload name: fleet-cnn-1k, fleet-llm-256 or daemon-soak")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "run length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	w, err := workloadByName(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	rep, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, samplesFor(tailQ))
	if err == nil {
		err = rep.print(os.Stdout)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// episode is one build-and-run of a workload and what it measured.
type episode struct {
	traced      bool
	repeat      bool // an earlier episode of the run ran the same sub-seed
	setup       time.Duration
	periodMS    []float64 // host wall time per period after the set-up period
	nodePeriods int       // node-periods stepped after the set-up period
	attempted   int       // node-periods stepped, the set-up period included
	failures    []failure
	digest      uint64
	capping     capping
	art         artifactCounts
	heapLive    uint64
	heapGrowth  float64
	mallocs     uint64
	allocBytes  uint64
	gcCPU, cpu  float64
	probe       *probe
}

func (ep *episode) wallMS() float64 { return sum(ep.periodMS) }

func (ep *episode) failed() int {
	n := 0
	for _, f := range ep.failures {
		n += f.nodePeriods
	}
	return min(n, ep.attempted)
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readCPU() (gc, total float64) {
	s := make([]metrics.Sample, len(cpuMetrics))
	for i, n := range cpuMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// refusedError reports a workload seed whose workload the program's
// constructors refuse to build.
type refusedError struct {
	seed int64
	err  error
}

func (e *refusedError) Error() string {
	return fmt.Sprintf("workload seed %d refused at build: %v", e.seed, e.err)
}

// maxRefusals bounds the derived seeds tried for one sub-seed.
const maxRefusals = 8

// runEpisode builds the workload, runs its set-up period, then times
// each further host period. Checks and the forced collections run
// outside the timed periods.
func runEpisode(w workload, seed int64, traced bool) (*episode, error) {
	ep := &episode{traced: traced}
	t0 := time.Now()
	r, err := w.build(seed, w)
	if err != nil {
		return nil, &refusedError{seed, err}
	}
	if err := r.step(0); err != nil {
		return nil, fmt.Errorf("%s: set-up period: %w", w.name, err)
	}
	ep.setup = time.Since(t0)
	l := newLedger()
	l.afterStep(r, 0)
	ep.attempted = len(r.coordinator().Nodes)
	if traced {
		ep.probe = newProbe()
		ep.probe.instrumentRig(r.coordinator())
	}

	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := readCPU()
	for k := 1; k < w.periods; k++ {
		t := time.Now()
		err := r.step(k)
		d := time.Since(t)
		n := len(r.coordinator().Nodes)
		if err != nil {
			ep.failures = append(ep.failures, failure{(w.periods - k) * n, fmt.Sprintf("period %d: %v", k, err)})
			ep.attempted += (w.periods - k) * n
			break
		}
		ep.periodMS = append(ep.periodMS, float64(d)/float64(time.Millisecond))
		ep.nodePeriods += n
		l.afterStep(r, k)
	}
	gc1, cpu1 := readCPU()
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	ep.attempted += ep.nodePeriods
	ep.heapLive = m2.HeapAlloc
	ep.heapGrowth = float64(m2.HeapAlloc) - float64(m0.HeapAlloc)
	ep.mallocs = m1.Mallocs - m0.Mallocs
	ep.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ep.gcCPU, ep.cpu = gc1-gc0, cpu1-cpu0

	if err := r.finish(); err != nil {
		ep.failures = append(ep.failures, failure{ep.attempted, err.Error()})
	}
	recs := r.records()
	ep.failures = append(ep.failures, l.failures...)
	ep.failures = append(ep.failures, l.checkRecords(recs)...)
	ep.failures = append(ep.failures, r.check()...)
	ep.digest = digest(recs, r.streams())
	ep.capping = measureCapping(recs)
	ep.art = r.artifacts()
	return ep, nil
}

// subSeeds is how many workload seeds a run cycles through, each
// derived from the run's seed. The fleets identify one power model per
// class from the seed, so a single seed can land a hard or an easy
// model; a run averages over several.
const subSeeds = 8

// episodeSeed derives the j-th workload seed of a run (splitmix64).
func episodeSeed(seed int64, j int) int64 {
	z := uint64(seed)<<16 + uint64(j) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 33)
}

// run repeats episodes of w in cycles over the sub-seeds: a warm-up
// episode, then each sub-seed once per cycle (untraced, then traced
// when traced is set). It stops at a cycle boundary once the run has
// lasted d and holds minPeriods untraced host periods — enough for the
// tail percentile. Each episode must reproduce the
// simulated output of the first episode of its sub-seed exactly.
func run(w workload, seed int64, d time.Duration, traced bool, minPeriods int) (*report, error) {
	start := time.Now()
	cycle := subSeeds
	if traced {
		cycle *= 2
	}
	var eps []*episode
	first := map[int]*episode{}
	rep := &report{}
	seeds := make([]int64, subSeeds)
	for j := range seeds {
		seeds[j] = episodeSeed(seed, j)
	}
	tries := make([]int, subSeeds)
	accepted := make([]bool, subSeeds)
	measured := 0
	for {
		m := len(eps) - warmupEpisodes
		if m > 0 && m%cycle == 0 && time.Since(start) >= d && measured >= minPeriods ||
			time.Since(start) >= maxRun {
			break
		}
		j, tr := 0, false
		if m >= 0 {
			j = m % cycle
			if traced {
				j, tr = j/2, j%2 == 1
			}
		}
		ep, err := runEpisode(w, seeds[j], tr)
		var re *refusedError
		if errors.As(err, &re) && !accepted[j] && tries[j] < maxRefusals {
			// A refused seed attempts no node-period; take the next seed
			// derived for this slot, and report the refusal.
			log.Printf("%s: %v", w.name, err)
			tries[j]++
			rep.refused++
			seeds[j] = episodeSeed(seed, j+tries[j]*subSeeds)
			continue
		}
		if err != nil {
			return nil, err
		}
		accepted[j] = true
		if f := first[j]; f == nil {
			first[j] = ep
		} else {
			ep.repeat = true
			if ep.digest != f.digest {
				ep.failures = append(ep.failures, failure{ep.attempted,
					fmt.Sprintf("episode %d: simulated output differs from the earlier episode of sub-seed %d", len(eps), j)})
			}
		}
		for _, f := range ep.failures {
			log.Printf("%s episode %d: %d failed node-periods: %s", w.name, len(eps), f.nodePeriods, f.reason)
		}
		if m >= 0 && !tr {
			measured += len(ep.periodMS)
		}
		eps = append(eps, ep)
	}
	summarize(rep, w, seed, eps, traced)
	return rep, nil
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

type report struct {
	refused   int // workload seeds refused at build
	attempted int
	failed    int
	notes     []string
	metrics   []metric
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// print writes one line per metric, then the JSON result line.
func (r *report) print(out io.Writer) error {
	var sb strings.Builder
	for _, n := range r.notes {
		fmt.Fprintf(&sb, "# %s\n", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Fprintf(&sb, "%-40s %16.6g %s\n", m.name, m.value, m.unit)
		ms[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	sb.Write(b)
	sb.WriteByte('\n')
	_, err = io.WriteString(out, sb.String())
	return err
}

// summarize turns the episodes into the end-to-end metrics, or with
// traced set into the per-layer metrics. The simulated results sum the
// first episode of every sub-seed; later episodes repeat them.
func summarize(rep *report, w workload, seed int64, eps []*episode, traced bool) {
	var setups []float64
	var untraced, tracedEps []*episode
	var sim outcome
	subs := 0
	for i, ep := range eps {
		rep.attempted += ep.attempted
		rep.failed += ep.failed()
		setups = append(setups, ep.setup.Seconds())
		if !ep.repeat {
			subs++
			sim.add(ep)
		}
		switch {
		case i < warmupEpisodes:
		case ep.traced:
			tracedEps = append(tracedEps, ep)
		default:
			untraced = append(untraced, ep)
		}
	}
	periods := pooled(untraced)
	rep.notes = append(rep.notes, fmt.Sprintf(
		"%s seed %d: %d episodes of %d periods over %d sub-seeds (%d warm-up, %d traced); %d untraced host periods measured",
		w.name, seed, len(eps), w.periods, subs, warmupEpisodes, len(tracedEps), len(periods)))
	if rep.refused > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("%d workload seeds refused at build and replaced (see standard error)", rep.refused))
	}
	if q := tailPercentile(len(periods)); q < tailQ {
		rep.notes = append(rep.notes, fmt.Sprintf("p%d has fewer than %d samples beyond it; only p%g has enough", tailQ, minTail, q))
	}
	if !traced {
		rep.add("setup_s", percentile(setups, 50), "s")
		rep.add("node_periods_per_s", throughput(untraced), "1/s")
		rep.add("period_p50_ms", medianPeriod(untraced), "ms")
		rep.add("heap_live_mb", float64(eps[len(eps)-1].heapLive)/1e6, "MB")
		rep.add("cap_compliance_rate", 1-sim.capping.violationRate(), "fraction")
		rep.add("tracking_rmse_w", sim.capping.rmseW(), "W")
		rep.add("gpu_throughput_per_node", sim.capping.throughputPerNode(), "items/s")
		return
	}
	// The tail of the untraced host period: reported by the traced run
	// because its spread between runs on a shared 2-vCPU host exceeds
	// any bound an end-to-end metric may have.
	rep.add("period_p99_ms", percentile(periods, tailQ), "ms")
	layerMetrics(rep, w, sim, untraced, tracedEps)
}

// outcome sums the simulated results of several episodes.
type outcome struct {
	capping     capping
	art         artifactCounts
	nodePeriods int
	periods     int
}

func (o *outcome) add(ep *episode) {
	o.capping.add(ep.capping)
	o.art.eventBytes += ep.art.eventBytes
	o.art.events += ep.art.events
	o.art.flightBytes += ep.art.flightBytes
	o.art.traceBytes += ep.art.traceBytes
	o.art.spans += ep.art.spans
	o.nodePeriods += ep.attempted
	o.periods += len(ep.periodMS) + 1
}

func pooled(eps []*episode) []float64 {
	var xs []float64
	for _, ep := range eps {
		xs = append(xs, ep.periodMS...)
	}
	return xs
}

// throughput is the median over episodes of node-periods per second of
// timed host periods. The median keeps a burst of host contention in a
// few episodes out of the figure.
func throughput(eps []*episode) float64 {
	xs := make([]float64, len(eps))
	for i, ep := range eps {
		xs[i] = ratio(float64(ep.nodePeriods), ep.wallMS()/1000)
	}
	return percentile(xs, 50)
}

// medianPeriod is the median over episodes of each episode's median
// host period time.
func medianPeriod(eps []*episode) float64 {
	xs := make([]float64, len(eps))
	for i, ep := range eps {
		xs[i] = percentile(append([]float64(nil), ep.periodMS...), 50)
	}
	return percentile(xs, 50)
}

// layerMetrics reports the per-layer metrics from the traced episodes,
// the Go runtime metrics from the untraced ones, and the artifact and
// SLO counts from the simulated outcome.
func layerMetrics(rep *report, w workload, sim outcome, untraced, traced []*episode) {
	var (
		phases                         [numPhases][]float64
		harness, emit, period, decide  []float64
		iterations, allocate           []float64
		provUS, wallUS                 float64
		hostPeriods                    int
		decisions, infeasible, relaxed int
		sloFloor, atBound              int
	)
	for _, ep := range traced {
		p := ep.probe
		wallUS += ep.wallMS() * 1000
		hostPeriods += len(ep.periodMS)
		provUS += p.provUS
		allocate = append(allocate, p.allocate...)
		for _, s := range p.sinks {
			for i := range phases {
				phases[i] = append(phases[i], s.phases[i]...)
			}
			harness = append(harness, s.harness...)
			emit = append(emit, s.emit...)
			period = append(period, s.period...)
		}
		for _, c := range p.ctrls {
			decide = append(decide, c.decide...)
			iterations = append(iterations, c.iterations...)
			decisions += c.traced
			infeasible += c.infeasible
			relaxed += c.relaxed
			sloFloor += c.sloFloor
			atBound += c.atBound
		}
	}
	busy := float64(w.workers) * wallUS // worker-time the host periods offered
	share := func(xs []float64) float64 { return ratio(sum(xs), busy) }
	perDecision := func(n int) float64 { return ratio(float64(n), float64(decisions)) }
	np := float64(sim.nodePeriods)
	art := sim.art
	hasFlight := art.flightBytes > 0

	rep.add("sim.sense_us_p50", percentile(phases[phSense], 50), "us")
	rep.add("sim.sense_us_p99", percentile(phases[phSense], 99), "us")
	rep.add("sim.sense_share", share(phases[phSense]), "fraction")
	rep.add("core.condense_us_p50", percentile(phases[phCondense], 50), "us")
	rep.add("core.harness_us_p50", percentile(harness, 50), "us")
	rep.add("core.decide_us_p50", percentile(decide, 50), "us")
	rep.add("core.decide_us_p99", percentile(decide, 99), "us")
	rep.add("core.decide_share", share(decide), "fraction")
	rep.add("qp.iterations_mean", mean(iterations), "count")
	rep.add("qp.iterations_p99", percentile(iterations, 99), "count")
	rep.add("qp.infeasible_rate", perDecision(infeasible), "fraction")
	rep.add("qp.relaxed_rate", perDecision(relaxed), "fraction")
	rep.add("mpc.knobs_at_bound_mean", perDecision(atBound), "count")
	rep.add("mpc.slo_floor_rate", perDecision(sloFloor), "fraction")
	rep.add("actuator.actuate_us_p50", percentile(phases[phActuate], 50), "us")
	rep.add("actuator.retries_per_node_period", ratio(float64(sim.capping.retries), float64(sim.capping.controlled)), "count")
	rep.add("actuator.first_try_rate", ratio(float64(sim.capping.firstTry), float64(sim.capping.controlled)), "fraction")
	verify := []float64(nil)
	if hasFlight {
		verify = phases[phVerify]
	}
	rep.add("flight.verify_us_p50", percentile(verify, 50), "us")
	rep.add("flight.verify_share", share(verify), "fraction")
	rep.add("flight.bytes_per_node_period", ratio(float64(art.flightBytes), np), "B")
	rep.add("telemetry.period_us_p50", percentile(period, 50), "us")
	rep.add("telemetry.emit_us_p50", percentile(emit, 50), "us")
	rep.add("telemetry.share", ratio(sum(period)+sum(emit), busy), "fraction")
	rep.add("telemetry.events_per_node_period", ratio(float64(art.events), np), "count")
	rep.add("telemetry.bytes_per_node_period", ratio(float64(art.eventBytes), np), "B")
	rep.add("provenance.us_per_period", ratio(provUS, float64(hostPeriods)), "us")
	rep.add("provenance.share", ratio(provUS, busy), "fraction")
	rep.add("provenance.spans_per_period", ratio(float64(art.spans), float64(sim.periods)), "count")
	rep.add("provenance.bytes_per_node_period", ratio(float64(art.traceBytes), np), "B")
	rep.add("cluster.allocate_us_p50", percentile(allocate, 50), "us")
	rep.add("cluster.fanout_efficiency", share(harness), "fraction")
	self := 0.0
	if w.daemon {
		self = ratio(wallUS-sum(harness)-sum(allocate)-provUS, wallUS)
	}
	rep.add("controlplane.self_share", self, "fraction")

	var mallocs, allocBytes, gcCPU, cpu, growth float64
	unp := 0
	for _, ep := range untraced {
		mallocs += float64(ep.mallocs)
		allocBytes += float64(ep.allocBytes)
		gcCPU += ep.gcCPU
		cpu += ep.cpu
		growth += ep.heapGrowth
		unp += ep.nodePeriods
	}
	rep.add("go.allocs_per_node_period", ratio(mallocs, float64(unp)), "count")
	rep.add("go.alloc_bytes_per_node_period", ratio(allocBytes, float64(unp)), "B")
	rep.add("go.gc_cpu_share", ratio(gcCPU, cpu), "fraction")
	rep.add("go.heap_growth_bytes_per_node_period", ratio(growth, float64(unp)), "B")
	rep.add("trace.overhead_frac", 1-ratio(throughput(traced), throughput(untraced)), "fraction")
	rep.add("experiments.refused_seeds", float64(rep.refused), "count")
	rep.add("slo_miss_rate", sim.capping.sloMissRate(), "fraction")
	rep.add("artifact_bytes_per_node_period", ratio(float64(art.eventBytes+art.flightBytes+art.traceBytes), np), "B")
}
