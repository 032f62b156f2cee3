package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/core"
)

// This file holds the output checks that every workload shares and the
// simulated capping statistics. Both run outside the timed periods.

// ledger tracks, outside the timed periods, how many periods each node
// was stepped and whether every reallocation barrier kept the summed
// allocation within the budget.
type ledger struct {
	stepped  map[string]int
	failures []failure
}

func newLedger() *ledger { return &ledger{stepped: map[string]int{}} }

// afterStep books host period k of rig r.
func (l *ledger) afterStep(r rig, k int) {
	c := r.coordinator()
	for _, n := range c.Nodes {
		l.stepped[n.Name]++
	}
	if k%c.RackPeriods != 0 {
		return
	}
	live := c.Liveness()
	sum := 0.0
	for i, n := range c.Nodes {
		if live[i] == 0 {
			sum += n.Assigned()
		}
	}
	if limit := c.BudgetW(k) - c.ReservedW(); sum > limit+1e-6 {
		l.failures = append(l.failures, failure{len(c.Nodes),
			fmt.Sprintf("period %d: summed allocation %.3f W > budget %.3f W", k, sum, limit)})
	}
}

// checkRecords compares every node's record count with the periods it
// was stepped.
func (l *ledger) checkRecords(recs map[string][]core.PeriodRecord) []failure {
	var out []failure
	for _, name := range sortedKeys(l.stepped) {
		want, got := l.stepped[name], len(recs[name])
		if got != want {
			out = append(out, failure{want, fmt.Sprintf("node %s: %d records for %d periods", name, got, want)})
		}
	}
	for _, name := range sortedKeys(recs) {
		if _, ok := l.stepped[name]; !ok {
			out = append(out, failure{len(recs[name]), fmt.Sprintf("node %s: records for a node never stepped", name)})
		}
	}
	return out
}

// digest folds the simulated output — every record's powers, caps,
// clocks, throughputs and flags, then the artifact streams — into one
// FNV-1a hash. Two runs of one workload and seed must agree on it.
func digest(recs map[string][]core.PeriodRecord, streams [][]byte) uint64 {
	h := fnv.New64a()
	// hash.Hash documents that Write never returns an error.
	write := func(p []byte) { _, _ = h.Write(p) }
	var b [8]byte
	put := func(v float64) {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		write(b[:])
	}
	flag := func(v bool) {
		if v {
			put(1)
		} else {
			put(0)
		}
	}
	for _, name := range sortedKeys(recs) {
		write([]byte(name))
		for _, r := range recs[name] {
			put(float64(r.Period))
			put(r.AvgPowerW)
			put(r.MaxPowerW)
			put(r.SetpointW)
			put(r.TrueAvgPowerW)
			put(r.EnergyJ)
			put(r.CPUFreqGHz)
			put(r.CPUThroughput)
			put(r.Decision.CPUFreqGHz)
			for _, xs := range [][]float64{r.GPUFreqMHz, r.GPUThroughput, r.GPULatencyS, r.GPUPowerW, r.Decision.GPUFreqMHz} {
				for _, x := range xs {
					put(x)
				}
			}
			put(float64(r.ActuatorRetries))
			put(float64(r.MeterStale))
			flag(r.Degraded)
			flag(r.FailSafe)
			flag(r.Uncontrolled)
			for _, m := range r.SLOMiss {
				flag(m)
			}
		}
	}
	for _, s := range streams {
		put(float64(len(s)))
		write(s)
	}
	return h.Sum64()
}

// capping is the simulated outcome of one episode. For a given seed it
// repeats exactly.
type capping struct {
	nodePeriods int
	over        int     // true average power > cap × (1 + capSlack)
	sqErr       float64 // Σ (measured average − cap)²
	throughput  float64 // Σ per-node GPU throughput (img/s or tokens/s)
	sloPeriods  int     // GPU-periods with an SLO set
	sloMisses   int
	retries     int // actuator re-deliveries
	firstTry    int // controlled node-periods needing no re-delivery
	controlled  int
}

// capSlack is the margin above the cap before a node-period counts as
// a cap violation.
const capSlack = 0.02

func measureCapping(recs map[string][]core.PeriodRecord) capping {
	var c capping
	for _, name := range sortedKeys(recs) {
		for _, r := range recs[name] {
			c.nodePeriods++
			if r.TrueAvgPowerW > r.SetpointW*(1+capSlack) {
				c.over++
			}
			e := r.AvgPowerW - r.SetpointW
			c.sqErr += e * e
			for _, t := range r.GPUThroughput {
				c.throughput += t
			}
			for i, s := range r.SLOs {
				if s > 0 {
					c.sloPeriods++
					if i < len(r.SLOMiss) && r.SLOMiss[i] {
						c.sloMisses++
					}
				}
			}
			if !r.Uncontrolled {
				c.controlled++
				c.retries += r.ActuatorRetries
				if r.ActuatorRetries == 0 {
					c.firstTry++
				}
			}
		}
	}
	return c
}

func (c *capping) add(o capping) {
	c.nodePeriods += o.nodePeriods
	c.over += o.over
	c.sqErr += o.sqErr
	c.throughput += o.throughput
	c.sloPeriods += o.sloPeriods
	c.sloMisses += o.sloMisses
	c.retries += o.retries
	c.firstTry += o.firstTry
	c.controlled += o.controlled
}

func (c capping) violationRate() float64 { return ratio(float64(c.over), float64(c.nodePeriods)) }
func (c capping) rmseW() float64         { return math.Sqrt(ratio(c.sqErr, float64(c.nodePeriods))) }
func (c capping) throughputPerNode() float64 {
	return ratio(c.throughput, float64(c.nodePeriods))
}
func (c capping) sloMissRate() float64 { return ratio(float64(c.sloMisses), float64(c.sloPeriods)) }
