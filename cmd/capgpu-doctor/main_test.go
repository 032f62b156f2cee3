package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flight"
	"repro/internal/provenance"
)

func writeFile(t *testing.T, path, body string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadFlightsDirectory(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "n000.flight.jsonl"), `{"period":0,"setpoint_w":900}`+"\n"+`{"period":1,"setpoint_w":800}`+"\n")
	writeFile(t, filepath.Join(dir, "n001.flight.jsonl"), "")
	// Other artifacts a capgpu-rack run leaves next to the streams.
	writeFile(t, filepath.Join(dir, "events.jsonl"), "not a flight record\n")
	writeFile(t, filepath.Join(dir, "trace.jsonl"), "not a flight record\n")
	writeFile(t, filepath.Join(dir, "n002.flight.json"), "not a flight record\n")

	streams, err := loadFlights(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 2 || len(streams["n000"]) != 2 || streams["n000"][1].SetpointW != 800 {
		t.Fatalf("streams = %+v, want n000 (2 records) and an empty n001", streams)
	}
	if recs, ok := streams["n001"]; !ok || len(recs) != 0 {
		t.Fatalf("n001 = %v, %v: want a present, empty stream", recs, ok)
	}

	// A single file is one stream keyed "".
	streams, err = loadFlights(filepath.Join(dir, "n000.flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 1 || len(streams[""]) != 2 {
		t.Fatalf("single file streams = %+v", streams)
	}

	// A malformed stream names its file.
	writeFile(t, filepath.Join(dir, "n003.flight.jsonl"), "{broken\n")
	if _, err := loadFlights(dir); err == nil || !strings.Contains(err.Error(), "n003.flight.jsonl") {
		t.Fatalf("malformed stream error = %v", err)
	}
	if _, err := loadFlights(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing path accepted")
	}
}

func TestParseTarget(t *testing.T) {
	node, period, err := parseTarget("n003@152")
	if err != nil || node != "n003" || period != 152 {
		t.Fatalf("parseTarget(n003@152) = %q, %d, %v", node, period, err)
	}
	// The last '@' splits, so node labels may contain one.
	if node, period, err = parseTarget("a@b@7"); err != nil || node != "a@b" || period != 7 {
		t.Fatalf("parseTarget(a@b@7) = %q, %d, %v", node, period, err)
	}
	for _, bad := range []string{"n003", "@152", "n003@", "n003@x", "n003@1.5"} {
		if _, _, err := parseTarget(bad); err == nil || !strings.Contains(err.Error(), "bad -explain target") {
			t.Errorf("parseTarget(%q) error = %v", bad, err)
		}
	}
}

func TestRunExplain(t *testing.T) {
	var traceBuf bytes.Buffer
	tracer := provenance.New(provenance.Config{JSONL: &traceBuf})
	op := tracer.BeginPolicyOp("cap", 5, "n0", "cap:n0*700")
	tracer.EndPolicyOp(op, 5, true)
	tracer.Stage(op)
	tracer.BeginRealloc(5)
	capID, parent := tracer.CapChange("n0", 5, 900, 700)
	if err := tracer.Finish(6); err != nil {
		t.Fatal(err)
	}
	tr, err := provenance.LoadTrace(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	recs := []flight.DecisionRecord{
		{Period: 4, SetpointW: 900},
		{Period: 5, SetpointW: 700, CauseID: capID, ParentID: parent},
	}

	var out bytes.Buffer
	if err := runExplain(&out, tr, recs, "n0", 5, false); err != nil {
		t.Fatal(err)
	}
	want := "n0@5: cap 700.0 W (cause " + capID + ", class cap)\n  cap@5 [cap:n0*700] → reallocation "
	if !strings.HasPrefix(out.String(), want) {
		t.Fatalf("explain = %q, want prefix %q", out.String(), want)
	}
	out.Reset()
	if err := runExplain(&out, tr, recs, "n0", 4, false); err != nil || out.String() != "n0@4: cap 900.0 W is the initial assignment (no traced cause)\n" {
		t.Fatalf("initial explain = %q, %v", out.String(), err)
	}
	out.Reset()
	if err := runExplain(&out, tr, recs, "n0", 5, true); err != nil || !strings.Contains(out.String(), `"class":"cap"`) {
		t.Fatalf("json explain = %q, %v", out.String(), err)
	}
	if err := runExplain(&out, tr, recs, "n0", 9, false); err == nil {
		t.Fatal("explained a period the stream lacks")
	}
	if err := runExplain(&out, tr, recs, "n1", 5, false); err == nil || !strings.Contains(err.Error(), "wrong -flight stream") {
		t.Fatalf("wrong-stream error = %v", err)
	}
	recs[1].CauseID = "cap:ghost@5"
	if err := runExplain(&out, tr, recs, "n0", 5, false); err == nil || !strings.Contains(err.Error(), "not in the trace") {
		t.Fatalf("unknown-cause error = %v", err)
	}
}
