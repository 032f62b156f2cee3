// Command capgpu-rack runs a rack of CapGPU-managed servers under one
// shared power budget, comparing (or running a single) coordinator
// allocation policy. This is the deployment shape the paper's
// introduction motivates: power oversubscription behind a shared
// breaker, with per-server capping as the enforcement layer.
//
// Usage:
//
//	capgpu-rack [-budget W] [-policy name|all] [-periods N] [-seed N]
//
// The rack is three servers with heavy / medium / light load (3 / 2 / 1
// busy GPUs); policies: uniform, demand, priority.
//
// Fleet mode and parallel stepping:
//
//	-nodes N     run a synthetic fleet of N nodes (heavy/medium/light
//	             classes round-robin) instead of the 3-server rack;
//	             -budget defaults to 950 W per node when left unset
//	-workers W   per-node control loops stepped by W workers
//	             (0 = GOMAXPROCS, 1 = sequential); output is
//	             byte-identical at every worker count
//
// Rack-plane faults and telemetry (see DESIGN.md):
//
//	-faults string           fault DSL; server-dropout targets are node
//	                         indices (0 heavy, 1 medium, 2 light)
//	-metrics-addr string     serve /metrics, /events, /healthz during and
//	                         after the run (stays up until SIGINT or -hold)
//	-events string           append the JSONL event stream to this file
//	-metrics-snapshot string write the final Prometheus exposition here
//	-hold duration           with -metrics-addr, serve this long after the
//	                         run instead of waiting for SIGINT
//	-pprof                   with -metrics-addr, also serve net/http/pprof
//	                         under /debug/pprof/
//
// Daemon mode (-serve) runs the long-lived control plane instead of a
// fixed experiment: nodes join and drain at barriers, the allocation
// policy is hot-swappable over a REST API, and versioned checkpoints
// make the process crash-recoverable (see DESIGN.md, "Control plane &
// daemon lifecycle"):
//
//	-serve                 long-running daemon; -periods 0 = run until
//	                       SIGINT/SIGTERM (graceful: finish the period,
//	                       flush, checkpoint, exit 0)
//	-soak                  deterministic soak: a seeded churn/reconfig
//	                       schedule plus diurnal/bursty load for one
//	                       simulated day, gated by capgpu-doctor
//	-api-addr string       control API: GET /policy (status), POST
//	                       /policy and /membership (validated, queued,
//	                       applied at the next reallocation barrier)
//	-schedule string       churn DSL `kind@period[:target][*value]`:
//	                       join, drain, kill, revive, budget, cap, slo
//	                       (e.g. "join@40:heavy;kill@120:n000;
//	                       budget@60*2400;cap@90:n002*700")
//	-checkpoint string     checkpoint file (boundaries + shutdown)
//	-checkpoint-every N    checkpoint cadence in periods
//	-resume                restore from -checkpoint; the restored run
//	                       re-emits byte-identical telemetry and flight
//	                       records at any -workers count
//	-flight-dir string     per-node flight JSONL (+ soak doctor reports)
//	-trace string          decision-provenance trace JSONL: one span per
//	                       policy op, reallocation, and cap change, for
//	                       capgpu-doctor -flight <flight-dir> -trace to
//	                       verify, attribute and explain
//	-pace duration         wall-clock pacing per period (4s = real time)
//
// In daemon mode crashes are injected through the schedule DSL
// (kill@k:name), so -faults is rejected there.
package main

import (
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	budget := flag.Float64("budget", 2850, "rack power budget in Watts")
	policy := flag.String("policy", "all", "allocation policy: uniform, demand, priority, all")
	periods := flag.Int("periods", 60, "server control periods (T = 4 s each)")
	seed := flag.Int64("seed", 33, "simulation seed")
	faultsDSL := flag.String("faults", "", "rack fault DSL ("+faults.KindNames()+"); server-dropout targets node indices")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /events, /healthz on this address (e.g. :9090)")
	eventsPath := flag.String("events", "", "write the JSONL telemetry event stream to this path")
	snapshotPath := flag.String("metrics-snapshot", "", "write the final Prometheus exposition to this path")
	hold := flag.Duration("hold", 0, "with -metrics-addr, keep serving this long after the run (0 = until SIGINT)")
	pprofOn := flag.Bool("pprof", false, "with -metrics-addr, also serve net/http/pprof under /debug/pprof/")
	nodes := flag.Int("nodes", 0, "fleet mode: run N synthetic nodes instead of the 3-server rack")
	workers := flag.Int("workers", 1, "worker goroutines stepping node control loops (0 = GOMAXPROCS)")
	serve := flag.Bool("serve", false, "daemon mode: long-running control plane with membership, policy API, and checkpoints")
	soak := flag.Bool("soak", false, "deterministic soak: seeded churn/reconfig schedule + diurnal/bursty load, gated by the doctor")
	apiAddr := flag.String("api-addr", "", "with -serve/-soak, serve the policy/membership API on this address (e.g. :9091)")
	schedule := flag.String("schedule", "", "with -serve, a churn/reconfig schedule in controlplane DSL (e.g. \"join@8;drain@20:n001\")")
	checkpoint := flag.String("checkpoint", "", "with -serve/-soak, checkpoint file (written at boundaries and on shutdown)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "with -serve/-soak, checkpoint cadence in periods (0 = shutdown only; soak defaults to 500)")
	resume := flag.Bool("resume", false, "with -serve/-soak, restore from -checkpoint instead of cold-starting")
	flightDir := flag.String("flight-dir", "", "with -serve/-soak, write per-node flight JSONL (and soak doctor reports) here")
	tracePath := flag.String("trace", "", "with -serve/-soak, write the decision-provenance trace JSONL here (for capgpu-doctor -flight <flight-dir> -trace)")
	pace := flag.Duration("pace", 0, "with -serve, wall-clock delay per control period (0 = free-running; 4s = real time)")
	workloadKind := flag.String("workload", "", "with -nodes, fleet workload family: cnn (default) or llm (continuous-batching LLM serving)")
	flag.Parse()

	if *pprofOn && *metricsAddr == "" {
		fmt.Fprintln(os.Stderr, "capgpu-rack: -pprof requires -metrics-addr")
		os.Exit(1)
	}

	if *serve || *soak {
		if *faultsDSL != "" {
			fmt.Fprintln(os.Stderr, "capgpu-rack: daemon mode injects crashes via the schedule DSL (kill@k:node), not -faults")
			os.Exit(1)
		}
		// -periods keeps its classic default of 60 for batch runs; the
		// daemon treats an unset flag as "until signal" (serve) or one
		// simulated day (soak).
		servePeriods := 0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "periods" {
				servePeriods = *periods
			}
		})
		serveBudget := 0.0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "budget" {
				serveBudget = *budget
			}
		})
		err := runServe(serveOptions{
			seed: *seed, nodes: *nodes, budgetW: serveBudget, periods: servePeriods,
			workers: *workers, schedule: *schedule, apiAddr: *apiAddr,
			metricsAddr: *metricsAddr, pprofOn: *pprofOn,
			eventsPath: *eventsPath, snapshotPath: *snapshotPath,
			checkpointPath: *checkpoint, checkpointEvery: *checkpointEvery,
			resume: *resume, flightDir: *flightDir, pace: *pace, soak: *soak,
			tracePath: *tracePath,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "capgpu-rack:", err)
			os.Exit(1)
		}
		return
	}

	var sched *faults.Schedule
	if *faultsDSL != "" {
		var err error
		sched, err = faults.Parse(*faultsDSL, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "capgpu-rack:", err)
			os.Exit(1)
		}
	}

	// Telemetry is opt-in; the wall clock is injected here at the cmd
	// layer, never inside the seeded packages. Counting from a
	// process-start origin keeps the clock monotonic (no NTP steps) with
	// full float64 resolution for sub-microsecond phase spans.
	var hub *telemetry.Hub
	var eventsFile *os.File
	if *metricsAddr != "" || *eventsPath != "" || *snapshotPath != "" {
		start := time.Now()
		cfg := telemetry.Config{Clock: func() float64 { return time.Since(start).Seconds() }}
		if *eventsPath != "" {
			f, err := os.Create(*eventsPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "capgpu-rack:", err)
				os.Exit(1)
			}
			eventsFile = f
			cfg.JSONL = f
		}
		hub = telemetry.New(cfg)
	}
	if *metricsAddr != "" {
		addr, err := telemetry.ServeHandler(withPprof(telemetry.Handler(hub), *pprofOn), *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "capgpu-rack:", err)
			os.Exit(1)
		}
		extra := ""
		if *pprofOn {
			extra = ", /debug/pprof/"
		}
		fmt.Printf("telemetry: serving http://%s/metrics (/events, /healthz%s)\n\n", addr, extra)
	}

	if *nodes > 0 {
		// Fleet budget: an explicit -budget wins; otherwise scale the
		// default with the fleet (950 W per node) rather than inheriting
		// the 3-server rack's 2850 W.
		fleetBudget := 0.0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "budget" {
				fleetBudget = *budget
			}
		})
		if err := runFleet(*seed, *periods, *nodes, *workers, fleetBudget, *policy, *workloadKind, sched, hub); err != nil {
			fmt.Fprintln(os.Stderr, "capgpu-rack:", err)
			os.Exit(1)
		}
		finishTelemetry(hub, eventsFile, *eventsPath, *snapshotPath, *metricsAddr, *hold)
		return
	}

	rows, err := experiments.ExtensionClusterOpts(*seed, *periods, *budget,
		experiments.ClusterOptions{Telemetry: hub, Faults: sched, Workers: *workers})
	if err != nil {
		fmt.Fprintln(os.Stderr, "capgpu-rack:", err)
		os.Exit(1)
	}

	match := func(name string) bool {
		switch *policy {
		case "all":
			return true
		case "demand":
			return name == "demand-proportional"
		default:
			return name == *policy
		}
	}

	var out [][]string
	var picked []experiments.ClusterRow
	for _, r := range rows {
		if !match(r.Policy) {
			continue
		}
		picked = append(picked, r)
		out = append(out, []string{
			r.Policy,
			fmt.Sprintf("%.0f / %.0f", r.SteadyTotalW, r.BudgetW),
			fmt.Sprintf("%d", r.OverBudgetPeriods),
			fmt.Sprintf("%.0f", r.AggThroughput),
			fmt.Sprintf("%.0f / %.0f / %.0f", r.PerNodeCapW[0], r.PerNodeCapW[1], r.PerNodeCapW[2]),
		})
	}
	if len(picked) == 0 {
		fmt.Fprintf(os.Stderr, "capgpu-rack: unknown policy %q (uniform, demand, priority, all)\n", *policy)
		os.Exit(1)
	}
	fmt.Printf("Rack: 3 servers (heavy/medium/light), budget %.0f W, %d periods\n", *budget, *periods)
	if sched != nil {
		fmt.Printf("fault schedule: %s\n", sched.String())
	}
	fmt.Println()
	fmt.Print(trace.Table(
		[]string{"policy", "rack W (used/budget)", "over-budget", "rack img/s", "caps h/m/l (W)"},
		out))

	// Per-node control-loop health, the rack operator's end-of-run view:
	// the same violation rule the telemetry hub and metrics summary use,
	// so all three numbers agree.
	for _, r := range picked {
		var nodeRows [][]string
		for _, n := range r.Nodes {
			nodeRows = append(nodeRows, []string{
				n.Name,
				fmt.Sprintf("%d", n.Periods),
				fmt.Sprintf("%d", n.CapViolations),
				fmt.Sprintf("%d", n.SLOMisses),
				fmt.Sprintf("%d", n.DegradedPeriods),
				fmt.Sprintf("%d", n.FailSafeEntries),
				fmt.Sprintf("%d", n.UncontrolledPeriods),
			})
		}
		fmt.Printf("\nper-node telemetry summary — %s:\n", r.Policy)
		fmt.Print(trace.Table(
			[]string{"node", "periods", "cap-violations", "slo-misses", "degraded", "failsafe-entries", "uncontrolled"},
			nodeRows))
	}

	if *policy == "all" && len(rows) == 3 {
		best, bestT := "", math.Inf(-1)
		for _, r := range rows {
			if r.AggThroughput > bestT {
				best, bestT = r.Policy, r.AggThroughput
			}
		}
		fmt.Printf("\nhighest rack throughput under this budget: %s (%.0f img/s)\n", best, bestT)
	}

	finishTelemetry(hub, eventsFile, *eventsPath, *snapshotPath, *metricsAddr, *hold)
}

// finishTelemetry flushes the event stream, writes the optional
// Prometheus snapshot, and holds the HTTP endpoint — the common tail of
// the classic rack and fleet modes.
func finishTelemetry(hub *telemetry.Hub, eventsFile *os.File, eventsPath, snapshotPath, metricsAddr string, hold time.Duration) {
	if hub != nil {
		if err := hub.Finish(); err != nil {
			fmt.Fprintln(os.Stderr, "capgpu-rack: event stream:", err)
			os.Exit(1)
		}
		if eventsFile != nil {
			if err := eventsFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "capgpu-rack:", err)
				os.Exit(1)
			}
			fmt.Println("\nevents written to", eventsPath)
		}
		if snapshotPath != "" {
			f, err := os.Create(snapshotPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "capgpu-rack:", err)
				os.Exit(1)
			}
			werr := hub.Registry().WritePrometheus(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintln(os.Stderr, "capgpu-rack:", werr)
				os.Exit(1)
			}
			fmt.Println("metrics snapshot written to", snapshotPath)
		}
	}
	if metricsAddr != "" {
		if hold > 0 {
			fmt.Printf("telemetry: holding the endpoint for %s\n", hold)
			time.Sleep(hold)
			return
		}
		fmt.Println("telemetry: endpoint stays up — SIGINT to exit")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
}

// runFleet is -nodes mode: one policy over a synthetic N-node fleet,
// stepped by the requested worker count.
func runFleet(seed int64, periods, nodes, workers int, budgetW float64, policy, workloadKind string, sched *faults.Schedule, hub *telemetry.Hub) error {
	var pol cluster.Policy
	switch policy {
	case "uniform":
		pol = cluster.Uniform{}
	case "demand", "demand-proportional", "all":
		// Fleet mode runs a single policy; the "all" default falls back
		// to the paper's recommended demand-proportional allocator.
		pol = cluster.DemandProportional{}
	case "priority":
		pol = cluster.Priority{}
	default:
		return fmt.Errorf("unknown policy %q (uniform, demand, priority)", policy)
	}
	row, err := experiments.RunScaleRack(seed, periods, nodes, pol,
		budgetW, experiments.ClusterOptions{Telemetry: hub, Faults: sched, Workers: workers, Workload: workloadKind})
	if err != nil {
		return err
	}
	fmt.Printf("Fleet: %d nodes (heavy/medium/light classes), budget %.0f W, %d periods, %d workers\n",
		row.Nodes, row.BudgetW, periods, row.Workers)
	if sched != nil {
		fmt.Printf("fault schedule: %s\n", sched.String())
	}
	fmt.Println()
	fmt.Print(trace.Table(
		[]string{"policy", "rack W (used/budget)", "over-budget", "rack img/s", "dead", "cap-violations", "degraded", "uncontrolled"},
		[][]string{{
			row.Policy,
			fmt.Sprintf("%.0f / %.0f", row.SteadyTotalW, row.BudgetW),
			fmt.Sprintf("%d", row.OverBudgetPeriods),
			fmt.Sprintf("%.0f", row.AggThroughput),
			fmt.Sprintf("%d", row.DeadNodes),
			fmt.Sprintf("%d", row.CapViolations),
			fmt.Sprintf("%d", row.DegradedPeriods),
			fmt.Sprintf("%d", row.Uncontrolled),
		}}))
	return nil
}

// withPprof mounts the hub handler at / and, when enabled, the pprof
// endpoints under /debug/pprof/ — kept at the cmd layer so the
// deterministic telemetry package never imports net/http/pprof.
func withPprof(h http.Handler, enable bool) http.Handler {
	if !enable {
		return h
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
