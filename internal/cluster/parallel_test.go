package cluster

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

func TestRunIndexedCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		const n = 23
		var hits [n]int64
		runIndexed(workers, n, func(i int) { atomic.AddInt64(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	runIndexed(4, 0, func(int) { t.Fatal("fn called for n=0") })
	runIndexed(4, -1, func(int) { t.Fatal("fn called for n<0") })
}

// dropoutSchedule exercises every rack-visible fault layer: a node
// death long enough to cross the heartbeat threshold, a transient
// single-miss, and meter faults inside the surviving loops.
const dropoutSchedule = "server-dropout@6+8:node1;server-dropout@16+1:node2;meter-dropout@4+3;meter-spike@12+3*250"

// parallelRack builds a 5-node rack with full fault + telemetry wiring
// for the given worker count, all from one seed, so racks built with
// different worker counts are replicas.
func parallelRack(t *testing.T, seed int64, workers int, jsonl io.Writer) (*Coordinator, *telemetry.Hub) {
	t.Helper()
	sched, err := faults.Parse(dropoutSchedule, seed)
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.New(telemetry.Config{JSONL: jsonl})
	nodes := make([]*Node, 5)
	for i := range nodes {
		nodes[i] = cheapNode(t, fmt.Sprintf("n%d", i), seed+int64(i)*11)
		nodes[i].SetFaults(sched)
		nodes[i].Harness().SetTelemetry(hub, nodes[i].Name)
	}
	c, err := NewCoordinator(nodes, DemandProportional{}, func(int) float64 { return 1800 })
	if err != nil {
		t.Fatal(err)
	}
	c.Faults = sched
	c.Workers = workers
	c.Telemetry = hub.NodeSink("rack")
	return c, hub
}

// TestParallelStepEquivalence is the cluster-layer half of the
// sequential≡parallel contract: under node death and meter faults, any
// worker count must reproduce the sequential run byte-for-byte on the
// records, the JSONL event stream, and the Prometheus exposition.
func TestParallelStepEquivalence(t *testing.T) {
	const seed, periods = 41, 30
	run := func(workers int) ([][]core.PeriodRecord, []byte, []byte, *Coordinator) {
		var jsonl bytes.Buffer
		c, hub := parallelRack(t, seed, workers, &jsonl)
		if err := c.Run(periods); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := hub.Finish(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var prom bytes.Buffer
		if err := hub.Registry().WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		recs := make([][]core.PeriodRecord, len(c.Nodes))
		for i, n := range c.Nodes {
			recs[i] = append([]core.PeriodRecord(nil), n.Records()...)
		}
		return recs, jsonl.Bytes(), prom.Bytes(), c
	}
	refRecs, refJSONL, refProm, refC := run(1)
	for _, workers := range []int{2, 8} {
		recs, jsonl, prom, c := run(workers)
		if !reflect.DeepEqual(recs, refRecs) {
			t.Errorf("workers=%d: records diverge from sequential", workers)
		}
		if !bytes.Equal(jsonl, refJSONL) {
			t.Errorf("workers=%d: JSONL event stream diverges (%d vs %d bytes)",
				workers, len(jsonl), len(refJSONL))
		}
		if !bytes.Equal(prom, refProm) {
			t.Errorf("workers=%d: Prometheus exposition diverges", workers)
		}
		if !reflect.DeepEqual(c.Liveness(), refC.Liveness()) {
			t.Errorf("workers=%d: liveness diverges", workers)
		}
		for i := range c.Nodes {
			if c.Nodes[i].Assigned() != refC.Nodes[i].Assigned() {
				t.Errorf("workers=%d: node %d assigned %v vs %v",
					workers, i, c.Nodes[i].Assigned(), refC.Nodes[i].Assigned())
			}
		}
	}
}

// TestParallelEquivalenceProperty drives the contract over random
// fault schedules, policies, and worker counts: for every drawn
// configuration the parallel run must reproduce the sequential one's
// records exactly.
func TestParallelEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	kinds := []string{"meter-dropout", "meter-stuck", "meter-spike", "server-dropout", "actuator-loss", "gpu-derate"}
	policies := []Policy{Uniform{}, DemandProportional{}, Priority{}}
	prop := func(seed int64, cfg uint64) bool {
		rng := rand.New(rand.NewSource(int64(cfg)))
		const nodes = 3
		periods := 8 + rng.Intn(10)
		workers := 2 + rng.Intn(7)
		policy := policies[rng.Intn(len(policies))]
		entries := make([]string, 1+rng.Intn(3))
		for i := range entries {
			kind := kinds[rng.Intn(len(kinds))]
			entry := fmt.Sprintf("%s@%d+%d", kind, rng.Intn(periods), 1+rng.Intn(6))
			switch kind {
			case "server-dropout":
				entry += fmt.Sprintf(":node%d", rng.Intn(nodes))
			case "actuator-loss", "gpu-derate":
				entry += fmt.Sprintf(":gpu%d", rng.Intn(3))
			}
			entries[i] = entry
		}
		dsl := ""
		for i, e := range entries {
			if i > 0 {
				dsl += ";"
			}
			dsl += e
		}
		run := func(w int) [][]core.PeriodRecord {
			sched, err := faults.Parse(dsl, seed)
			if err != nil {
				t.Fatalf("generated DSL %q: %v", dsl, err)
			}
			ns := make([]*Node, nodes)
			for i := range ns {
				ns[i] = cheapNode(t, fmt.Sprintf("n%d", i), seed+int64(i)*7)
				ns[i].SetFaults(sched)
			}
			c, err := NewCoordinator(ns, policy, func(int) float64 { return 1500 })
			if err != nil {
				t.Fatal(err)
			}
			c.Faults = sched
			c.Workers = w
			if err := c.Run(periods); err != nil {
				t.Fatalf("dsl=%q workers=%d: %v", dsl, w, err)
			}
			recs := make([][]core.PeriodRecord, len(ns))
			for i, n := range ns {
				recs[i] = append([]core.PeriodRecord(nil), n.Records()...)
			}
			return recs
		}
		if !reflect.DeepEqual(run(1), run(workers)) {
			t.Logf("diverged: dsl=%q policy=%s workers=%d periods=%d seed=%d",
				dsl, policy.Name(), workers, periods, seed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestScrapeDuringParallelStep pins the shared-state audit under the
// race detector: concurrent /metrics-style scrapes and event-ring
// reads while the worker pool is mid-fan-out must be race-free.
func TestScrapeDuringParallelStep(t *testing.T) {
	c, hub := parallelRack(t, 43, 4, nil)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := hub.Registry().WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			hub.EventsSnapshot()
		}
	}()
	if err := c.Run(24); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	if err := hub.Finish(); err != nil {
		t.Fatal(err)
	}
}
