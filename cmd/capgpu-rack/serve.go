// serve.go is capgpu-rack's daemon mode: a long-running control plane
// with churn-tolerant membership, hot reconfiguration over an HTTP
// policy API, crash-recovery checkpoints, and a deterministic soak
// harness gated by the offline doctor. The seeded simulation stays
// inside internal/controlplane; this file owns only wall-clock pacing,
// signals, sockets, and files.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/controlplane"
	"repro/internal/experiments"
	"repro/internal/flight"
	"repro/internal/provenance"
	"repro/internal/runtimeobs"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// serveOptions is the flag surface of -serve / -soak mode.
type serveOptions struct {
	seed            int64
	nodes           int
	budgetW         float64 // 0 = derive from the fleet size
	periods         int     // 0 = run until a signal arrives
	workers         int
	schedule        string
	apiAddr         string
	metricsAddr     string
	pprofOn         bool
	eventsPath      string
	snapshotPath    string
	checkpointPath  string
	checkpointEvery int
	resume          bool
	flightDir       string
	tracePath       string
	pace            time.Duration
	soak            bool
}

// soakLoad is the canonical soak traffic shape: a full diurnal cycle
// across the run plus bursty per-node windows.
func soakLoad(periods int) controlplane.LoadSpec {
	return controlplane.LoadSpec{DiurnalAmp: 0.35, DiurnalPeriods: periods, BurstProb: 0.1, BurstAmp: 0.8}
}

// runServe builds (or restores) the control-plane daemon, steps it to
// the horizon or until SIGINT/SIGTERM, and tears everything down in
// order: finish the in-flight period, flush the event stream, write
// the metrics snapshot and a final checkpoint, then exit 0.
func runServe(o serveOptions) error {
	if o.nodes <= 0 {
		o.nodes = 6
	}
	if o.budgetW <= 0 {
		// Headroom for the soak's joins: churn peaks above the initial
		// fleet size, and admission is checked against this budget.
		o.budgetW = float64(o.nodes+2) * experiments.DefaultNodeBudgetW
	}
	spec := controlplane.Spec{
		Seed: o.seed, Nodes: o.nodes, BudgetW: o.budgetW,
		Workers: o.workers, Schedule: o.schedule,
		CheckpointEvery: o.checkpointEvery,
	}
	if o.soak {
		if o.periods <= 0 {
			o.periods = controlplane.DayPeriods
		}
		if o.schedule != "" {
			return fmt.Errorf("-soak generates its own schedule; drop -schedule")
		}
		sched, err := controlplane.SoakSchedule(o.periods, o.nodes, o.budgetW)
		if err != nil {
			return err
		}
		spec.Schedule = sched
		spec.Load = soakLoad(o.periods)
		// Diurnal carbon/price curves over the soak day, so the energy
		// ledger exercises weighted attribution end to end.
		spec.Energy = controlplane.EnergySpec{
			CarbonBase: 400, CarbonAmp: 0.3,
			PriceBase: 0.08, PriceAmp: 0.5,
			DiurnalPeriods: o.periods,
		}
		if spec.CheckpointEvery == 0 {
			spec.CheckpointEvery = 500
		}
	}

	// The flight dir is made first: the trace and events files
	// usually live in it.
	if o.flightDir != "" {
		if err := os.MkdirAll(o.flightDir, 0o755); err != nil {
			return err
		}
	}

	// Provenance tracer: soak always traces (the verdict includes the
	// zero-unattributed attribution gate, and its JSONL tees into
	// memory); serve traces when -trace names a destination. Restore
	// replays the op log through the same code paths, so a resumed run
	// re-mints the byte-identical trace into these fresh sinks.
	var traceBuf bytes.Buffer
	var traceFile *os.File
	var tracer *provenance.Tracer
	if o.soak || o.tracePath != "" {
		var tsinks []io.Writer
		if o.soak {
			tsinks = append(tsinks, &traceBuf)
		}
		if o.tracePath != "" {
			f, err := os.Create(o.tracePath)
			if err != nil {
				return err
			}
			traceFile = f
			tsinks = append(tsinks, f)
		}
		tracer = provenance.New(provenance.Config{JSONL: io.MultiWriter(tsinks...)})
	}

	// Telemetry: the JSONL stream tees into memory so the soak gate can
	// replay it through the doctor without re-reading files.
	start := time.Now()
	var eventsBuf bytes.Buffer
	var eventsFile *os.File
	cfg := telemetry.Config{Clock: func() float64 { return time.Since(start).Seconds() }}
	if o.soak {
		// The online alert engine runs at the same 3 % cap slack the
		// soak gate hands the offline doctor, so cap-sustain windows and
		// cap-violation incidents diagnose the same pathology and the
		// alert↔doctor correspondence check is apples to apples.
		cfg.Alerts = &telemetry.AlertConfig{CapSlackFrac: 0.03}
	}
	if tracer != nil && cfg.Alerts != nil {
		cfg.Alerts.Hook = func(e telemetry.Event) {
			tracer.OnAlertEvent(e.Detail, e.Node, e.Period, e.Value,
				e.Type == telemetry.EventAlertFiring)
		}
	}
	var sinks []io.Writer
	if o.eventsPath != "" {
		f, err := os.Create(o.eventsPath)
		if err != nil {
			return err
		}
		eventsFile = f
		sinks = append(sinks, f)
	}
	if o.soak {
		sinks = append(sinks, &eventsBuf)
	}
	if len(sinks) > 0 {
		cfg.JSONL = io.MultiWriter(sinks...)
	}
	hub := telemetry.New(cfg)

	// Flight recorders: per-node JSONL under -flight-dir, teed into
	// memory for the soak gate.
	flightBufs := map[string]*bytes.Buffer{}
	var flightFiles []*os.File
	flightWriter := func(node string) (io.Writer, error) {
		buf := &bytes.Buffer{}
		flightBufs[node] = buf
		if o.flightDir == "" {
			return buf, nil
		}
		f, err := os.Create(filepath.Join(o.flightDir, node+".flight.jsonl"))
		if err != nil {
			return nil, err
		}
		flightFiles = append(flightFiles, f)
		return io.MultiWriter(f, buf), nil
	}
	deps := experiments.NewDaemonDeps(o.seed, hub, flightWriter)
	deps.Tracer = tracer

	// Build fresh, or restore from the checkpoint and replay: the
	// restored daemon re-emits the replayed prefix into the sinks above,
	// so artifacts are complete whichever path ran.
	var d *controlplane.Daemon
	if o.resume {
		if o.checkpointPath == "" {
			return fmt.Errorf("-resume requires -checkpoint")
		}
		cp, err := controlplane.LoadCheckpoint(o.checkpointPath)
		if err != nil {
			return fmt.Errorf("resume: %w (cold-start by dropping -resume)", err)
		}
		if o.periods > 0 {
			if err := cp.ValidateHorizon(o.periods); err != nil {
				return err
			}
		}
		d, err = controlplane.Resume(cp, deps)
		if err != nil {
			return err
		}
		fmt.Printf("restored from %s at period %d (epoch %d)\n", o.checkpointPath, d.Period(), d.Epoch())
	} else {
		var err error
		d, err = controlplane.New(spec, deps)
		if err != nil {
			return err
		}
	}
	d.SetCheckpointPath(o.checkpointPath)

	if o.apiAddr != "" {
		addr, err := telemetry.ServeHandler(controlplane.APIHandler(d), o.apiAddr)
		if err != nil {
			return err
		}
		fmt.Printf("policy API: http://%s/policy (POST patches, GET status), /membership\n", addr)
	}
	if o.metricsAddr != "" {
		var ts telemetry.TraceSource
		if tracer != nil {
			ts = tracer
		}
		handler := runtimeobs.Attach(hub.Registry()).Wrap(
			withPprof(telemetry.HandlerWithTrace(hub, ts), o.pprofOn))
		addr, err := telemetry.ServeHandler(handler, o.metricsAddr)
		if err != nil {
			return err
		}
		fmt.Printf("telemetry: serving http://%s/metrics (/events, /trace, /healthz)\n", addr)
	}

	mode := "serve"
	if o.soak {
		mode = "soak"
	}
	horizon := "until SIGINT/SIGTERM"
	if o.periods > 0 {
		horizon = fmt.Sprintf("%d periods", o.periods)
	}
	st := d.Status()
	fmt.Printf("%s: %d members, budget %.0f W, %s\n", mode, len(st.Members), st.BudgetW, horizon)

	// The control loop. A signal finishes the in-flight period — Step is
	// never interrupted mid-period — then falls into the shutdown tail.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	interrupted := false
loop:
	for o.periods == 0 || d.Period() < o.periods {
		select {
		case sig := <-sigCh:
			fmt.Printf("\n%s: finishing period %d and shutting down\n", sig, d.Period())
			interrupted = true
			break loop
		default:
		}
		if err := d.Step(); err != nil {
			return err
		}
		if o.pace > 0 {
			time.Sleep(o.pace)
		}
	}

	// Shutdown tail: flush streams with sticky-error reporting, write
	// the snapshot and the final checkpoint. A clean SIGINT exit is
	// exit 0; only broken sinks or an unwritable checkpoint fail it.
	if err := hub.Finish(); err != nil {
		return fmt.Errorf("event stream: %w", err)
	}
	if eventsFile != nil {
		if err := eventsFile.Close(); err != nil {
			return err
		}
		fmt.Println("events written to", o.eventsPath)
	}
	if tracer != nil {
		last := d.Period() - 1
		if last < 0 {
			last = 0
		}
		if err := tracer.Finish(last); err != nil {
			return fmt.Errorf("trace stream: %w", err)
		}
		if traceFile != nil {
			if err := traceFile.Close(); err != nil {
				return err
			}
			fmt.Println("trace written to", o.tracePath)
		}
	}
	if err := d.FlightErr(); err != nil {
		return fmt.Errorf("flight stream: %w", err)
	}
	for _, f := range flightFiles {
		if err := f.Close(); err != nil {
			return err
		}
	}
	if err := d.CheckpointErr(); err != nil {
		return fmt.Errorf("checkpoint stream: %w", err)
	}
	if o.snapshotPath != "" {
		f, err := os.Create(o.snapshotPath)
		if err != nil {
			return err
		}
		werr := hub.Registry().WritePrometheus(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Println("metrics snapshot written to", o.snapshotPath)
	}
	if o.checkpointPath != "" {
		cp := d.Checkpoint()
		if err := controlplane.SaveCheckpoint(o.checkpointPath, cp); err != nil {
			return err
		}
		fmt.Printf("checkpoint written to %s (period %d)\n", o.checkpointPath, d.Period())
	}

	if o.soak && !interrupted {
		return soakVerdict(d, hub, &eventsBuf, flightBufs, &traceBuf, o.flightDir)
	}
	st = d.Status()
	fmt.Printf("stopped at period %d, epoch %d, %d members\n", st.Period, st.Epoch, len(st.Members))
	return nil
}

// soakVerdict is the soak gate: the run summary, then the offline
// doctor over every member's flight record — live or released — with
// the node's own events plus rack-scope events as context, then the
// telemetry-v2 checks: every online alert must correspond to a doctor
// incident (and vice versa for sustained ones), and the energy
// ledger's per-node Wh must agree with trapezoidal integration of the
// flight records. Any unexplained incident, alert mismatch, energy
// disagreement, rejected op, budget-invariant violation, or
// unattributed cap change is a non-zero exit.
func soakVerdict(d *controlplane.Daemon, hub *telemetry.Hub, eventsBuf *bytes.Buffer, flightBufs map[string]*bytes.Buffer, traceBuf *bytes.Buffer, artifactDir string) error {
	applied := map[controlplane.OpKind]int{}
	rejected := 0
	for _, op := range d.OpLog() {
		if op.Applied {
			applied[op.Op.Kind]++
		} else {
			rejected++
			fmt.Printf("REJECTED op: %+v\n", op)
		}
	}
	viol, violDetail := d.InvariantViolations()
	st := d.Status()
	fmt.Println()
	fmt.Print(trace.Table(
		[]string{"periods", "epoch", "members", "released", "joins", "drains", "kills", "reconfigs", "rejected", "invariant-violations"},
		[][]string{{
			fmt.Sprintf("%d", st.Period),
			fmt.Sprintf("%d", st.Epoch),
			fmt.Sprintf("%d", len(st.Members)),
			fmt.Sprintf("%d", len(d.Released())),
			fmt.Sprintf("%d", applied[controlplane.OpJoin]),
			fmt.Sprintf("%d", applied[controlplane.OpDrain]),
			fmt.Sprintf("%d", applied[controlplane.OpKill]),
			fmt.Sprintf("%d", applied[controlplane.OpBudget]+applied[controlplane.OpCap]+applied[controlplane.OpSLO]),
			fmt.Sprintf("%d", rejected),
			fmt.Sprintf("%d", viol),
		}}))
	if viol > 0 {
		fmt.Println("invariant detail:", violDetail)
	}

	events, err := telemetry.ReadEvents(bytes.NewReader(eventsBuf.Bytes()))
	if err != nil {
		return err
	}
	flightRecs := make(map[string][]flight.DecisionRecord, len(flightBufs))
	for name, buf := range flightBufs {
		recs, err := flight.ReadRecords(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		flightRecs[name] = recs
	}
	// The soak's injected load (±80 % bursts on a diurnal swing) puts
	// the plant's period-to-period noise floor near ±5 % of a node
	// cap, so the gate runs the doctor at a 3 % slack on both meters
	// instead of the 1 %/2 % defaults: tight enough that a stuck
	// controller or an escaped reallocation still fails the day,
	// loose enough that threshold-grazing noise over 21600 periods
	// does not. The written artifacts keep full resolution —
	// capgpu-doctor -slack reruns any stricter analysis offline.
	//
	// The alert cross-check is the online/offline correspondence: the
	// alert engine and the doctor looked at the same run through
	// different instruments, so their windows must overlap (after
	// margin widening) in both directions.
	verdict, err := flight.DiagnoseNodes(flight.NodesInput{
		Flights: flightRecs, Events: events,
		MeasuredSlackFrac: 0.03, TrueSlackFrac: 0.03,
		CheckAlerts: true,
	})
	if err != nil {
		return err
	}
	fmt.Println()
	if err := verdict.WriteText(os.Stdout); err != nil {
		return err
	}

	// Energy agreement: the ledger accumulated each period's EnergyJ;
	// trapezoidal integration of the flight record's true-power series
	// is an independent estimate that differs only by half-period edge
	// effects, far inside the relative tolerance.
	energyMismatches := 0
	var trapTotalWh float64
	for _, nv := range verdict.Nodes {
		trapWh := trapezoidWh(flightRecs[nv.Node])
		trapTotalWh += trapWh
		ledgerWh := hub.NodeWh(nv.Node)
		if relDiff(ledgerWh, trapWh) > 1e-3 {
			energyMismatches++
			fmt.Printf("  %s: ledger %.3f Wh vs trapezoid %.3f Wh\n", nv.Node, ledgerWh, trapWh)
		}
		if artifactDir != "" {
			b, err := json.MarshalIndent(nv.Report, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(artifactDir, "doctor-"+nv.Node+".json"), append(b, '\n'), 0o644); err != nil {
				return err
			}
		}
	}

	ledgerTotal := hub.LedgerTotalWh()
	fmt.Printf("\nenergy: ledger %.1f Wh, trapezoid %.1f Wh, %d fired alerts across %d nodes\n",
		ledgerTotal, trapTotalWh, len(telemetry.FiredAlerts(events)), len(flightBufs))
	if relDiff(ledgerTotal, trapTotalWh) > 1e-3 {
		energyMismatches++
		fmt.Printf("TOTAL energy disagreement: ledger %.3f Wh vs trapezoid %.3f Wh\n", ledgerTotal, trapTotalWh)
	}

	// Provenance gate: replay the trace stream against the flight
	// records — every cap change ≥ ε must point at a cap-change span
	// whose period, node, and parent all agree with the record.
	ptr, err := provenance.LoadTrace(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		return fmt.Errorf("trace replay: %w", err)
	}
	problems, _ := ptr.VerifyFlights(flightRecs, provenance.DefaultEpsilonW)
	for _, p := range problems {
		fmt.Println("UNATTRIBUTED:", p)
	}
	unattributed := len(problems)
	attribTable := provenance.FormatAttribution(ptr.Attribution(flightRecs, 4))
	fmt.Printf("\nprovenance: %d spans, %d unattributed cap change(s)\n%s",
		len(ptr.Spans), unattributed, attribTable)

	if artifactDir != "" {
		if err := writeSoakArtifacts(hub, flight.AlertWindows(events), artifactDir); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(artifactDir, "trace.jsonl"), traceBuf.Bytes(), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(artifactDir, "attribution-table.txt"), []byte(attribTable), 0o644); err != nil {
			return err
		}
	}
	if verdict.ExitCode() != 0 || rejected > 0 || viol > 0 || energyMismatches > 0 || unattributed > 0 {
		return fmt.Errorf("soak failed: %d unexplained incidents, %d rejected ops, %d invariant violations, %d alert mismatches, %d energy mismatches, %d unattributed cap changes",
			verdict.Unexplained, rejected, viol, verdict.AlertMismatches, energyMismatches, unattributed)
	}
	fmt.Println("\nsoak clean: every incident explained, all ops applied, budget invariant held, alerts match the doctor, ledger matches integration, every cap change attributed")
	return nil
}

// trapezoidWh integrates a flight record's true-power series over time
// by the trapezoid rule, in watt-hours.
func trapezoidWh(recs []flight.DecisionRecord) float64 {
	var joules float64
	for i := 1; i < len(recs); i++ {
		dt := recs[i].TimeS - recs[i-1].TimeS
		joules += dt * (recs[i].TruePowerW + recs[i-1].TruePowerW) / 2
	}
	if len(recs) > 1 {
		// The records are period means stamped at period end; the run's
		// first and last half-periods fall outside the trapezoid span, so
		// put them back with the edge means.
		dt := (recs[len(recs)-1].TimeS - recs[0].TimeS) / float64(len(recs)-1)
		joules += dt / 2 * (recs[0].TruePowerW + recs[len(recs)-1].TruePowerW)
	} else if len(recs) == 1 {
		joules = recs[0].TruePowerW * 4
	}
	return joules / 3600
}

func relDiff(a, b float64) float64 {
	scale := max(abs(a), abs(b))
	if scale == 0 {
		return 0
	}
	return abs(a-b) / scale
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// writeSoakArtifacts exports the telemetry-v2 run products next to the
// flight records: the 100× downsampled series (CSV, one row per
// bucket) and the reconstructed alert windows (JSON).
func writeSoakArtifacts(hub *telemetry.Hub, alerts []flight.AlertWindow, dir string) error {
	f, err := os.Create(filepath.Join(dir, "series-res100.csv"))
	if err != nil {
		return err
	}
	werr := hub.WriteStoreCSV(f, 100)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	if alerts == nil {
		alerts = []flight.AlertWindow{}
	}
	b, err := json.MarshalIndent(alerts, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "alerts.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	lf, err := os.Create(filepath.Join(dir, "energy-ledger.txt"))
	if err != nil {
		return err
	}
	_, werr = lf.WriteString(telemetry.FormatLedgerTable(hub.LedgerTable()))
	if cerr := lf.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
