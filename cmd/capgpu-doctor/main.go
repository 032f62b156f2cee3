// Command capgpu-doctor is the diagnosis tool. It replays a run's
// flight record (plus, optionally, its telemetry event stream and CSV
// trace) and prints a root-cause report: run-level health, a
// constraint-activity table, and one diagnosed incident per anomaly
// window — each attributed (meter blind window, stale-model overshoot,
// SLO/cap conflict, fault-coincident violation, actuator loss) or
// flagged UNEXPLAINED.
//
// Usage:
//
//	capgpu-doctor -flight flight.jsonl [-events events.jsonl [-node n [-alerts]]] [-csv run.csv] [-json]
//	capgpu-doctor -flight dir [-events events.jsonl [-alerts]] [-trace trace.jsonl]
//	capgpu-doctor -flight flight.jsonl|dir -trace trace.jsonl -explain node@period [-json]
//
// -node cuts a multi-node event stream to that node's events plus the
// rack-scope ones. -alerts cross-checks the online alert engine's
// firing/resolved stream against the diagnosed incidents: every fired
// per-node alert must overlap an incident of the matching kind, and
// every sustained incident of an alertable kind must have been caught
// online.
//
// A -flight directory is the layout capgpu-rack -flight-dir writes, one
// <node>.flight.jsonl per node. Every non-empty stream is diagnosed
// against its node's slice of -events, one "doctor <node>: …" line
// each; -trace then verifies that every cap change is attributed to a
// cap-change span and prints the root-cause attribution table — the
// block the capgpu-rack soak gate writes to its log.
//
// -explain node@period answers the provenance question instead: the
// causal chain behind the cap the node ran under at that period
// (policy op → reallocation → cap change → settle).
//
// Exit codes are CI-gateable: 0 = clean run or every incident
// explained; 2 = unexplained anomalies, an alert/incident mismatch, or
// an unattributed cap change; 1 = usage or input errors.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/flight"
	"repro/internal/provenance"
	"repro/internal/telemetry"
)

// flightSuffix names the per-node streams of a -flight directory.
const flightSuffix = ".flight.jsonl"

func main() {
	flightPath := flag.String("flight", "", "flight-record JSONL, or a directory of <node>.flight.jsonl streams (required)")
	eventsPath := flag.String("events", "", "telemetry events JSONL (optional cross-check + SLO fallback)")
	csvPath := flag.String("csv", "", "run CSV trace (optional row-count cross-check)")
	jsonOut := flag.Bool("json", false, "emit the report (or the -explain chain) as JSON instead of text")
	measSlack := flag.Float64("slack", 0.01, "measured-violation slack fraction above the set point")
	trueSlack := flag.Float64("true-slack", 0.02, "breaker-side violation slack fraction")
	node := flag.String("node", "", "keep only events for this node label (plus rack-scope events) — for rack/daemon event streams covering many nodes")
	alerts := flag.Bool("alerts", false, "cross-check online alerts in -events against diagnosed incidents (requires -events, and -node for a single file)")
	tracePath := flag.String("trace", "", "decision-provenance trace JSONL (capgpu-rack -trace): with a -flight directory, verify and attribute every cap change; with -explain, explain one cap")
	explain := flag.String("explain", "", "with -trace: explain the cap behind node@period (e.g. n002@4310)")
	flag.Parse()

	if *flightPath == "" {
		usage("-flight is required")
	}
	info, err := os.Stat(*flightPath)
	check(err)
	isDir := info.IsDir()
	path, target, period := *flightPath, "", 0
	switch {
	case *explain != "":
		if *tracePath == "" {
			usage("-explain requires -trace")
		}
		if target, period, err = parseTarget(*explain); err != nil {
			usage(err.Error())
		}
		if isDir {
			path = filepath.Join(path, target+flightSuffix)
		}
	case isDir:
		if *node != "" || *csvPath != "" || *jsonOut {
			usage("-node, -csv and -json take a single -flight file, not a directory")
		}
		if *alerts && *eventsPath == "" {
			usage("-alerts requires -events")
		}
	case *tracePath != "":
		usage("-trace takes -explain, or a -flight directory")
	case *alerts && (*eventsPath == "" || *node == ""):
		usage("-alerts requires -events and -node")
	}

	streams, err := loadFlights(path)
	check(err)
	var events []telemetry.Event
	if *eventsPath != "" {
		check(readFile(*eventsPath, func(r io.Reader) (err error) { events, err = telemetry.ReadEvents(r); return err }))
	}
	var tr *provenance.Trace
	if *tracePath != "" {
		check(readFile(*tracePath, func(r io.Reader) (err error) { tr, err = provenance.LoadTrace(r); return err }))
	}
	in := flight.NodesInput{Events: events, MeasuredSlackFrac: *measSlack, TrueSlackFrac: *trueSlack, CheckAlerts: *alerts}
	switch {
	case *explain != "":
		check(runExplain(os.Stdout, tr, streams[""], target, period, *jsonOut))
	case isDir:
		in.Flights = streams
		os.Exit(runDir(in, tr))
	default:
		os.Exit(runFile(streams[""], *node, *csvPath, *jsonOut, in))
	}
}

// runFile diagnoses one flight stream and returns the exit code.
func runFile(records []flight.DecisionRecord, node, csvPath string, jsonOut bool, in flight.NodesInput) int {
	events := in.Events
	var report *flight.Report
	var alertRes *flight.AlertCheckResult
	if node == "" {
		var err error
		report, err = flight.Diagnose(flight.DoctorInput{
			Records: records, Events: events,
			MeasuredSlackFrac: in.MeasuredSlackFrac, TrueSlackFrac: in.TrueSlackFrac,
		})
		check(err)
	} else {
		// A daemon run's event stream interleaves every member; one
		// node's diagnosis sees only its slice, cut as the soak gate cuts it.
		in.Flights = map[string][]flight.DecisionRecord{node: records}
		v, err := flight.DiagnoseNodes(in)
		check(err)
		if len(v.Nodes) == 0 {
			fatalf("flight: no records to diagnose")
		}
		report, alertRes, events = v.Nodes[0].Report, v.Nodes[0].Alerts, v.Nodes[0].Events
	}

	if jsonOut {
		out := struct {
			*flight.Report
			Alerts *flight.AlertCheckResult `json:"alerts,omitempty"`
		}{report, alertRes}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatalf("encode report: %v", err)
		}
	} else {
		if err := report.WriteText(os.Stdout); err != nil {
			fatalf("write report: %v", err)
		}
		if alertRes != nil {
			if err := alertRes.Err(); err != nil {
				fmt.Printf("\nalert cross-check: %v\n", err)
			} else {
				fmt.Printf("\nalert cross-check: clean (%d alerts matched, %d incidents matched)\n",
					alertRes.AlertsMatched, alertRes.IncidentsMatched)
			}
		}
		crossCheck(records, events, csvPath)
	}
	code := report.ExitCode()
	if alertRes != nil && !alertRes.Ok() && code == 0 {
		code = 2
	}
	return code
}

// runDir diagnoses every stream of a -flight directory and, with a
// trace, verifies and attributes every cap change (energy at the 4 s
// control period); it returns the exit code.
func runDir(in flight.NodesInput, tr *provenance.Trace) int {
	v, err := flight.DiagnoseNodes(in)
	check(err)
	if len(v.Nodes) == 0 {
		// A wrong directory must not pass as a clean run.
		fatalf("no non-empty <node>%s streams in the -flight directory", flightSuffix)
	}
	if err := v.WriteText(os.Stdout); err != nil {
		fatalf("write report: %v", err)
	}
	code := v.ExitCode()
	if tr != nil {
		problems, _ := tr.VerifyFlights(in.Flights, provenance.DefaultEpsilonW)
		for _, p := range problems {
			fmt.Println("UNATTRIBUTED:", p)
		}
		fmt.Printf("\nprovenance: %d spans, %d unattributed cap change(s)\n%s",
			len(tr.Spans), len(problems), provenance.FormatAttribution(tr.Attribution(in.Flights, 4)))
		if len(problems) > 0 {
			code = 2
		}
	}
	return code
}

// loadFlights reads the -flight argument. A directory yields every
// <node>.flight.jsonl in it, keyed by node (the file stem); a file
// yields its one stream keyed "".
func loadFlights(path string) (map[string][]flight.DecisionRecord, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	paths := []string{path}
	if info.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "*"+flightSuffix)); err != nil {
			return nil, err
		}
	}
	streams := make(map[string][]flight.DecisionRecord, len(paths))
	for _, p := range paths {
		name := ""
		if info.IsDir() {
			name = strings.TrimSuffix(filepath.Base(p), flightSuffix)
		}
		var recs []flight.DecisionRecord
		if err := readFile(p, func(r io.Reader) (err error) { recs, err = flight.ReadRecords(r); return err }); err != nil {
			return nil, err
		}
		streams[name] = recs
	}
	return streams, nil
}

// readFile hands the file at path to read, naming the path in errors.
func readFile(path string, read func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = read(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// parseTarget splits an -explain target "node@period".
func parseTarget(s string) (node string, period int, err error) {
	at := strings.LastIndexByte(s, '@')
	if at <= 0 {
		return "", 0, fmt.Errorf("bad -explain target %q: want node@period", s)
	}
	period, err = strconv.Atoi(s[at+1:])
	if err != nil {
		return "", 0, fmt.Errorf("bad -explain target %q: %v", s, err)
	}
	return s[:at], period, nil
}

// runExplain resolves node@period against the node's flight stream
// and the provenance trace, and prints the causal chain behind the
// cap the node ran under at that period.
func runExplain(w io.Writer, tr *provenance.Trace, records []flight.DecisionRecord, node string, period int, jsonOut bool) error {
	var rec *flight.DecisionRecord
	for i := range records {
		if records[i].Period == period {
			rec = &records[i]
			break
		}
	}
	if rec == nil {
		return fmt.Errorf("node %s has no flight record for period %d", node, period)
	}
	if rec.CauseID == "" {
		if jsonOut {
			return json.NewEncoder(w).Encode(map[string]any{
				"node": node, "period": period, "setpoint_w": rec.SetpointW, "cause": nil,
			})
		}
		_, err := fmt.Fprintf(w, "%s@%d: cap %.1f W is the initial assignment (no traced cause)\n",
			node, period, rec.SetpointW)
		return err
	}
	chain := tr.Chain(rec.CauseID)
	if chain == nil {
		return fmt.Errorf("cause %s of %s@%d is not in the trace", rec.CauseID, node, period)
	}
	if sp := tr.Span(rec.CauseID); sp != nil && sp.Node != "" && sp.Node != node {
		return fmt.Errorf("cause %s belongs to node %s, not %s — wrong -flight stream?", rec.CauseID, sp.Node, node)
	}
	if jsonOut {
		return json.NewEncoder(w).Encode(map[string]any{
			"node": node, "period": period, "setpoint_w": rec.SetpointW,
			"cause": rec.CauseID, "class": tr.RootClass(rec.CauseID), "chain": chain,
		})
	}
	_, err := fmt.Fprintf(w, "%s@%d: cap %.1f W (cause %s, class %s)\n  %s\n",
		node, period, rec.SetpointW, rec.CauseID, tr.RootClass(rec.CauseID), provenance.FormatChain(chain))
	return err
}

// crossCheck prints consistency notes between the three inputs; purely
// informational, never affects the exit code.
func crossCheck(records []flight.DecisionRecord, events []telemetry.Event, csvPath string) {
	if len(events) > 0 {
		periodStarts := 0
		for _, e := range events {
			if e.Type == telemetry.EventPeriodStart {
				periodStarts++
			}
		}
		if periodStarts > 0 && periodStarts != len(records) {
			fmt.Printf("\nnote: events stream covers %d periods but the flight record has %d — inputs may be from different runs\n",
				periodStarts, len(records))
		}
	}
	if csvPath != "" {
		rows, err := countCSVRows(csvPath)
		if err != nil {
			fmt.Printf("\nnote: could not read CSV %v\n", err)
		} else if rows != len(records) {
			fmt.Printf("\nnote: CSV has %d data rows but the flight record has %d — inputs may be from different runs\n",
				rows, len(records))
		}
	}
}

func countCSVRows(path string) (rows int, err error) {
	err = readFile(path, func(r io.Reader) error {
		cr := csv.NewReader(r)
		cr.FieldsPerRecord = -1
		all, err := cr.ReadAll()
		rows = max(len(all)-1, 0) // minus the header
		return err
	})
	return rows, err
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "capgpu-doctor: "+msg)
	flag.Usage()
	os.Exit(1)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "capgpu-doctor: "+format+"\n", args...)
	os.Exit(1)
}
