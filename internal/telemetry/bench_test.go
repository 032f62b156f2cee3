package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

// benchPeriodSample is a steady in-band sample: no transitions, so the
// benchmark isolates the node-state lock + registry + store hot path from
// event-stream appends.
func benchPeriodSample(node string, period int) PeriodSample {
	return PeriodSample{
		Node: node, Period: period, TimeS: float64(period) * 4,
		SetpointW: 900, AvgPowerW: 895, TruePowerW: 894,
		EnergyJ: 3580, CPUFreqGHz: 2.2,
	}
}

// BenchmarkHubEmitParallel measures the per-node period stream pushed
// from W goroutines through the hub's one node-state lock. capgpu-bench
// records the same rows in BENCH_<date>.json and the allocation ratchet
// holds the hot path at 0 allocs/op.
func BenchmarkHubEmitParallel(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			hub := New(Config{Store: StoreConfig{RingCapacity: 256}})
			// Warm every node's state so the timed loop never allocates
			// nodeState, series rings, or ledger cells.
			for w := 0; w < workers; w++ {
				hub.Period(benchPeriodSample(fmt.Sprintf("bench%02d", w), 0))
			}
			per := (b.N + workers - 1) / workers
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					node := fmt.Sprintf("bench%02d", w)
					for i := 1; i <= per; i++ {
						hub.Period(benchPeriodSample(node, i))
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkHubEventAppend measures the globally-ordered event stream
// alone (ring append, no JSONL sink): the serialized tail every
// node's emission shares.
func BenchmarkHubEventAppend(b *testing.B) {
	hub := New(Config{})
	e := Event{Type: EventPeriodStart, Node: "bench00", Period: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub.Emit(e)
	}
}
