// Command capgpu-bench regenerates every table and figure of the
// paper's evaluation on the simulated testbed and prints a
// paper-vs-measured report in markdown (the contents of EXPERIMENTS.md).
//
// Usage:
//
//	capgpu-bench [-seed N] [-periods N] > EXPERIMENTS.md
//	capgpu-bench -json DIR|FILE
//
// With -json the markdown report is skipped; instead the tool measures
// the control loop's micro-benchmarks (ns/op, B/op, allocs/op via
// testing.Benchmark) plus a run-level tracking summary and writes them
// as one JSON document — BENCH_<date>.json when the path is a
// directory — so CI can archive the perf trajectory per commit.
//
// With -ratchet the measured allocs/op are compared against the
// committed per-benchmark ceilings (BENCH_FLOORS.json): any benchmark
// above its ceiling fails the run (exit 1). The tool never rewrites the
// floors file — improvements are banked by tightening it by hand, so
// the ratchet only ever moves down. -json and -ratchet compose: one
// measurement pass feeds both.
//
//	capgpu-bench -ratchet BENCH_FLOORS.json [-json DIR|FILE]
//
// -pprof ADDR serves net/http/pprof under /debug/pprof/ while the
// benchmarks run, so an allocs/op regression flagged by the ratchet
// can be profiled in place.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flight"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	seed := flag.Int64("seed", 4, "base simulation seed")
	periods := flag.Int("periods", 100, "control periods per session")
	jsonPath := flag.String("json", "", "write machine-readable benchmark JSON to this file or directory (skips the markdown report)")
	ratchet := flag.String("ratchet", "", "compare measured allocs/op against this floors file and fail on regression (skips the markdown report)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060) while the benchmarks run, so a ratchet regression can be profiled in place")
	flag.Parse()

	if *pprofAddr != "" {
		addr, err := servePprof(*pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "capgpu-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pprof: serving http://%s/debug/pprof/\n", addr)
	}

	if *jsonPath != "" || *ratchet != "" {
		report := measureBench(*seed)
		if *jsonPath != "" {
			writeBenchJSON(*jsonPath, report)
		}
		if *ratchet != "" && !checkRatchet(report, *ratchet) {
			os.Exit(1)
		}
		return
	}

	fmt.Println("# EXPERIMENTS — paper vs measured")
	fmt.Println()
	fmt.Println("Generated by `go run ./cmd/capgpu-bench`. Every section reproduces one")
	fmt.Println("table or figure of *Power Capping of GPU Servers for Machine Learning*")
	fmt.Println("*Inference Optimization* (CapGPU, ICPP 2025) on the simulated testbed")
	fmt.Println("described in DESIGN.md. Absolute numbers differ from the paper's")
	fmt.Println("hardware; the acceptance criterion is the *shape*: who wins, by roughly")
	fmt.Println("what factor, and where the failure modes lie. Paper values quoted below")
	fmt.Println("are from the paper's text; \"n/r\" marks values the paper reports only")
	fmt.Println("graphically.")
	fmt.Println()

	table1(*seed)
	fig2(*seed)
	fig3(*seed, *periods)
	fig45(*seed, *periods)
	fig6(*seed, *periods)
	fig7(*seed, *periods)
	fig89(*seed)
	fig10(*seed)
	ablations(*seed, *periods)
	efficiency(*seed, *periods)
	stability(*seed)
	extensions()
}

// servePprof mounts net/http/pprof on addr — the same profiling
// surface capgpu-sim and capgpu-rack expose behind -pprof, here
// standalone because the bench has no telemetry mux to piggyback on.
func servePprof(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return telemetry.ServeHandler(mux, addr)
}

func efficiency(seed int64, periods int) {
	rows, err := experiments.EnergyEfficiency(seed, periods, 1000)
	check(err)
	fmt.Println("## Energy efficiency at a 1000 W cap (derived view)")
	fmt.Println()
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Controller,
			fmt.Sprintf("%.0f", r.ImgPerSec),
			fmt.Sprintf("%.1f", r.PowerW),
			fmt.Sprintf("%.1f", r.ImgPerKJ),
			fmt.Sprintf("%.2f", r.SubsetsKJ),
		})
	}
	fmt.Print(trace.MarkdownTable(
		[]string{"Controller", "img/s", "Power W", "img/kJ", "subsets/kJ"}, out))
	fmt.Println()
	fmt.Println("At an identical cap, efficiency differences are allocation quality made")
	fmt.Println("visible in the unit operators pay for: CapGPU converts the same Joules")
	fmt.Println("into the most inferences.")
	fmt.Println()
}

func table1(seed int64) {
	res, err := experiments.Table1Motivation(1)
	check(err)
	fmt.Println("## Table 1 — motivation: end-to-end performance under different frequency controls")
	fmt.Println()
	paper := map[string][5]string{
		"CPU-only": {"0.1", "1.3", "3.2", "5.3", "406.4"},
		"GPU-only": {"0.2", "2.0", "2.7", "5.9", "421.3"},
		"CapGPU":   {"0.1", "1.6", "2.5", "6.4", "415.1"},
	}
	var rows [][]string
	for _, r := range res.Rows {
		p := paper[r.Config]
		rows = append(rows, []string{
			r.Config,
			fmt.Sprintf("%.1f GHz / %.0f MHz", r.CPUFreqGHz, r.GPUFreqMHz),
			fmt.Sprintf("%.2f (%s)", r.PreLatencyS, p[0]),
			fmt.Sprintf("%.2f (%s)", r.GPULatencyS, p[1]),
			fmt.Sprintf("%.2f (%s)", r.QueueDelayS, p[2]),
			fmt.Sprintf("%.2f (%s)", r.ThroughputIPS, p[3]),
			fmt.Sprintf("%.1f (%s)", r.AvgPowerW, p[4]),
		})
	}
	fmt.Print(trace.MarkdownTable(
		[]string{"Config", "CPU/GPU freq", "Pre s/img (paper)", "GPU s/batch (paper)",
			"Queue s/img (paper)", "Throughput img/s (paper)", "Power W (paper)"},
		rows))
	fmt.Println()
	fmt.Println("Shape check: CapGPU > GPU-only > CPU-only in throughput; CapGPU has the")
	fmt.Println("lowest queue delay; all three configs sit in a narrow power band.")
	fmt.Println()
}

func fig2(seed int64) {
	a, err := experiments.Fig2aSystemID(2)
	check(err)
	b, err := experiments.Fig2bLatencyModel("swin_t", 3)
	check(err)
	fmt.Println("## Figure 2 — system identification and latency model")
	fmt.Println()
	fmt.Print(trace.MarkdownTable(
		[]string{"Quantity", "Measured", "Paper"},
		[][]string{
			{"Power model R² (Fig. 2a)", fmt.Sprintf("%.4f", a.Model.R2), "0.96"},
			{"Excitation conditioning κ", fmt.Sprintf("%.1f", a.Model.Cond), "n/r"},
			{"CPU gain", fmt.Sprintf("%.1f W/GHz", a.Model.Gains[0]), "n/r"},
			{"GPU gain", fmt.Sprintf("%.4f W/MHz", a.Model.Gains[1]), "n/r"},
			{"Latency law R² at γ=0.91 (Fig. 2b)", fmt.Sprintf("%.4f", b.Model.R2), "≈0.91"},
			{"Free-fit γ", fmt.Sprintf("%.3f", b.FreeFit.Gamma), "0.91 (chosen)"},
		}))
	fmt.Println()
}

func fig3(seed int64, periods int) {
	res, err := experiments.Fig3PowerControl(seed, periods)
	check(err)
	fmt.Println("## Figure 3 — power control at a 900 W set point")
	fmt.Println()
	paperNote := map[string]string{
		"cpu-only":     "stuck far above cap (minimal range)",
		"gpu-only":     "converges, small oscillation",
		"cpu+gpu-50":   "settles off target",
		"cpu+gpu-60":   "settles off target (different error)",
		"fixed-step-1": "oscillates around cap",
		"capgpu":       "converges, most precise",
	}
	var rows [][]string
	for _, n := range res.Order {
		s := res.Runs[n].Summary
		settle := "never"
		if s.Settling >= 0 {
			settle = fmt.Sprintf("%d", s.Settling)
		}
		rows = append(rows, []string{
			res.Runs[n].Controller,
			fmt.Sprintf("%.1f", s.Mean),
			fmt.Sprintf("%.2f", s.Std),
			fmt.Sprintf("%.2f", s.RMSE),
			fmt.Sprintf("%d", s.Violations),
			settle,
			paperNote[n],
		})
	}
	fmt.Print(trace.MarkdownTable(
		[]string{"Controller", "Mean W", "Std W", "RMSE W", "Violations", "Settling (periods)", "Paper's finding"},
		rows))
	fmt.Println()
}

func fig45(seed int64, periods int) {
	f4, err := experiments.Fig4FixedStep(seed, periods)
	check(err)
	f5, err := experiments.Fig5SafeFixedStep(seed, periods)
	check(err)
	fmt.Println("## Figures 4 & 5 — Fixed-Step and Safe Fixed-Step across step sizes")
	fmt.Println()
	var rows [][]string
	add := func(res *experiments.Fig4Result) {
		for _, n := range res.Order {
			s := res.Runs[n].Summary
			settle := "never"
			if s.Settling >= 0 {
				settle = fmt.Sprintf("%d", s.Settling)
			}
			rows = append(rows, []string{
				res.Runs[n].Controller + " (" + n + ")",
				fmt.Sprintf("%.1f", s.Mean),
				fmt.Sprintf("%.2f", s.Std),
				fmt.Sprintf("%d", s.Violations),
				settle,
			})
		}
	}
	add(f4)
	add(f5)
	fmt.Print(trace.MarkdownTable(
		[]string{"Controller", "Mean W", "Std W", "Violations", "Settling"},
		rows))
	fmt.Println()
	fmt.Println("Shape check: small steps settle slowly then oscillate; larger steps")
	fmt.Println("oscillate more; plain Fixed-Step violates the cap; the Safe variants sit")
	fmt.Println("below it with at most an occasional violation (the paper observes one).")
	fmt.Println()
}

func fig6(seed int64, periods int) {
	res, err := experiments.Fig6SetpointSweep(seed, periods)
	check(err)
	fmt.Println("## Figure 6 — control accuracy across set points 900–1200 W")
	fmt.Println()
	header := []string{"Set point W"}
	for _, n := range res.Order {
		header = append(header, n+" mean±std")
	}
	var rows [][]string
	for _, sp := range res.SetpointsW {
		row := []string{fmt.Sprintf("%.0f", sp)}
		for _, n := range res.Order {
			for _, p := range res.Points {
				//lint:ignore floatsafety p.SetpointW is copied verbatim from the same sweep grid sp ranges over
				if p.Controller == n && p.SetpointW == sp {
					row = append(row, fmt.Sprintf("%.1f±%.1f", p.MeanW, p.StdW))
				}
			}
		}
		rows = append(rows, row)
	}
	fmt.Print(trace.MarkdownTable(header, rows))
	fmt.Println()
	fmt.Println("Shape check: Safe Fixed-Step has the worst accuracy (its margin keeps it")
	fmt.Println("30+ W under every cap) and large deviation; both CPU+GPU splits fail to")
	fmt.Println("converge, with errors growing along the sweep; GPU-Only tracks well;")
	fmt.Println("CapGPU matches every set point with the best accuracy/stability balance.")
	fmt.Println()
}

func fig7(seed int64, periods int) {
	res, err := experiments.Fig7Performance(seed, periods)
	check(err)
	fmt.Println("## Figure 7 — application performance at a 1000 W cap")
	fmt.Println()
	var rows [][]string
	for _, r := range res.Rows {
		sumT, sumL := 0.0, 0.0
		for i := range r.GPUThroughput {
			sumT += r.GPUThroughput[i]
			sumL += r.GPULatencyS[i]
		}
		rows = append(rows, []string{
			r.Controller,
			fmt.Sprintf("%.0f / %.0f / %.0f", r.GPUThroughput[0], r.GPUThroughput[1], r.GPUThroughput[2]),
			fmt.Sprintf("%.0f", sumT),
			fmt.Sprintf("%.3f / %.3f / %.3f", r.GPULatencyS[0], r.GPULatencyS[1], r.GPULatencyS[2]),
			fmt.Sprintf("%.3f", sumL/3),
			fmt.Sprintf("%.1f", r.CPUThroughput),
			fmt.Sprintf("%.4f", r.CPULatencyS),
		})
	}
	fmt.Print(trace.MarkdownTable(
		[]string{"Controller", "GPU img/s (t1/t2/t3)", "Σ img/s", "GPU s/batch (t1/t2/t3)",
			"mean s/batch", "CPU subsets/s", "CPU s/subset"},
		rows))
	fmt.Println()
	fmt.Println("Shape check (paper Fig. 7a–d): CapGPU has the highest aggregate GPU")
	fmt.Println("throughput and lowest mean latency; GPU-Only has the best CPU-side")
	fmt.Println("numbers (CPU pinned at max) with CapGPU slightly behind — acceptable, as")
	fmt.Println("preprocessing carries no SLO.")
	fmt.Println()
}

func fig89(seed int64) {
	res, err := experiments.Fig8Fig9SLOAdaptation(7, 60)
	check(err)
	fmt.Println("## Figures 8 & 9 — SLO adaptation (SLOs change at period 14, cap 1000 W)")
	fmt.Println()
	var rows [][]string
	for _, n := range res.Order {
		r := res.Runs[n]
		rows = append(rows, []string{
			r.Controller,
			fmt.Sprintf("%.2f / %.2f / %.2f", r.MissRate[0], r.MissRate[1], r.MissRate[2]),
			fmt.Sprintf("%.2f / %.2f / %.2f", r.PostChangeMissRate[0], r.PostChangeMissRate[1], r.PostChangeMissRate[2]),
		})
	}
	fmt.Print(trace.MarkdownTable(
		[]string{"Controller", "Miss rate (GPU0/1/2)", "Post-change miss rate"},
		rows))
	fmt.Println()
	fmt.Println("Shape check: after GPU 1/2's SLOs tighten, Safe Fixed-Step (no SLO")
	fmt.Println("mechanism) and GPU-Only (one shared clock) miss them almost every")
	fmt.Println("period, while CapGPU's per-device SLO floors hold every SLO (paper:")
	fmt.Println("\"CapGPU meets all SLO\").")
	fmt.Println()
}

func fig10(seed int64) {
	res, err := experiments.Fig10Adaptation(8, 120)
	check(err)
	fmt.Println("## Figure 10 — set-point adaptation (800 W → 900 W @40 → 800 W @80)")
	fmt.Println()
	var rows [][]string
	for _, n := range res.Order {
		r := res.Runs[n].Summary
		_ = r
		raise, drop := "never", "never"
		if v := res.SettlingAfterRaise[n]; v >= 0 {
			raise = fmt.Sprintf("%d periods", v)
		}
		if v := res.SettlingAfterDrop[n]; v >= 0 {
			drop = fmt.Sprintf("%d periods", v)
		}
		rows = append(rows, []string{res.Runs[n].Controller, raise, drop})
	}
	fmt.Print(trace.MarkdownTable(
		[]string{"Controller", "Settling after raise", "Settling after drop"}, rows))
	fmt.Println()
	fmt.Println("Shape check: all controllers adapt; CapGPU holds the least fluctuation")
	fmt.Println("and settles at least as fast as GPU-Only; Safe Fixed-Step never enters")
	fmt.Println("the ±2.5% band (it targets cap − margin by design).")
	fmt.Println()
}

func ablations(seed int64, periods int) {
	fmt.Println("## Ablations (beyond the paper)")
	fmt.Println()
	w, err := experiments.AblationWeights(21, 80)
	check(err)
	ds, err := experiments.AblationDeltaSigma(22, periods)
	check(err)
	hz, err := experiments.AblationHorizons(23, 80)
	check(err)
	sv, err := experiments.AblationSolver(24, 60)
	check(err)
	var rows [][]string
	emit := func(study string, rs []experiments.AblationRow) {
		for _, r := range rs {
			rows = append(rows, []string{
				study, r.Config,
				fmt.Sprintf("%.1f", r.Summary.Mean),
				fmt.Sprintf("%.2f", r.Summary.RMSE),
				fmt.Sprintf("%.0f", r.GPUTput),
				fmt.Sprintf("%.1f", r.CPUTput),
			})
		}
	}
	emit("A1 weights (GPU2 idle)", w)
	emit("A2 delta-sigma (coarse 135 MHz grid)", ds)
	emit("A3 horizons", hz)
	emit("A4 solver", sv)
	fmt.Print(trace.MarkdownTable(
		[]string{"Study", "Config", "Mean W", "RMSE W", "GPU img/s", "CPU subsets/s"}, rows))
	fmt.Println()
	fmt.Println("A1: the throughput-inverted weights park the idle GPU and buy ~10% more")
	fmt.Println("aggregate throughput at the same cap. A2 (run on a coarse 135 MHz grid):")
	fmt.Println("delta-sigma removes the steady-state quantization bias (mean lands on")
	fmt.Println("the cap) at the cost of dithering variance; plain rounding is quieter")
	fmt.Println("but sits off the cap. A3: horizons barely matter on this near-first-")
	fmt.Println("order plant — (P=8, M=2) is safe, not critical. A4: both solvers find")
	fmt.Println("the same optimum; the active-set QP is the cheaper of the two.")
	fmt.Println()
}

func stability(seed int64) {
	res, err := experiments.StabilityAnalysis(9)
	check(err)
	fmt.Println("## §4.4 stability analysis")
	fmt.Println()
	fmt.Printf("Nominal closed-loop pole: **%.3f** (damped MPC law, β = 0.7).\n\n", res.NominalPole)
	fmt.Printf("Uniform plant-gain scaling keeps the loop stable for s ∈ (%.2f, %.2f):\n",
		res.UniformLo, res.UniformHi)
	fmt.Println("the identified gains may be off by nearly 3× before stability is lost,")
	fmt.Println("matching the paper's claim that stability holds \"as long as each A_i")
	fmt.Println("stays within a derived bound\". Per-device bounds (others nominal):")
	fmt.Println()
	var rows [][]string
	labels := []string{"CPU", "GPU 0", "GPU 1", "GPU 2"}
	for i := range res.PerDeviceLo {
		rows = append(rows, []string{labels[i],
			fmt.Sprintf("(%.2f, %.2f)", res.PerDeviceLo[i], res.PerDeviceHi[i])})
	}
	fmt.Print(trace.MarkdownTable([]string{"Device", "Admissible gain factor"}, rows))
	fmt.Println()
	var locus [][]string
	for i, s := range res.LocusScales {
		locus = append(locus, []string{
			fmt.Sprintf("%.2f", s),
			fmt.Sprintf("%.3f", res.LocusPoles[i]),
			fmt.Sprintf("%v", res.LocusStable[i]),
		})
	}
	fmt.Print(trace.MarkdownTable([]string{"Gain scale", "Pole", "Stable"}, locus))
	fmt.Println()
}

func extensions() {
	fmt.Println("## Extensions (the paper's stated future work, built out)")
	fmt.Println()
	ad, err := experiments.ExtensionAdaptive(31, 100)
	check(err)
	fmt.Println("### Online model adaptation (RLS) under a workload change")
	fmt.Println()
	fmt.Println("Two GPUs' inference jobs complete at period 40; their utilization —")
	fmt.Println("and with it the true power-frequency slope — collapses. §4.4 proves the")
	fmt.Println("static controller survives bounded gain error; the adaptive extension")
	fmt.Println("removes the error online (excitation-gated RLS with covariance")
	fmt.Println("anti-windup, gains projected into the §4.4 trust region).")
	fmt.Println()
	var rows [][]string
	for _, r := range ad {
		rows = append(rows, []string{r.Config,
			fmt.Sprintf("%.1f", r.PredRMSEPost),
			fmt.Sprintf("%.2f", r.PowerRMSEPost),
			fmt.Sprintf("%.1f / %.3f / %.3f / %.3f", r.GainsEnd[0], r.GainsEnd[1], r.GainsEnd[2], r.GainsEnd[3]),
		})
	}
	fmt.Print(trace.MarkdownTable(
		[]string{"Model", "Post-change prediction RMSE W", "Tracking RMSE W", "Final gains (CPU/GPU0/1/2)"}, rows))
	fmt.Println()

	inf, err := experiments.ExtensionInfeasibleCap(32, 60)
	check(err)
	fmt.Println("### Memory throttling for frequency-infeasible caps (§4.4 future work)")
	fmt.Println()
	rows = nil
	for _, r := range inf {
		rows = append(rows, []string{r.Config,
			fmt.Sprintf("%.0f", r.CapW),
			fmt.Sprintf("%.1f", r.SteadyMeanW),
			fmt.Sprintf("%+.1f", r.SteadyErrW),
			fmt.Sprintf("%d", r.ThrottlesEnd),
		})
	}
	fmt.Print(trace.MarkdownTable(
		[]string{"Controller", "Cap W", "Steady mean W", "Error W", "Mem throttles engaged"}, rows))
	fmt.Println()

	bt, err := experiments.ExtensionBatchSLO(34, 60)
	check(err)
	fmt.Println("### Dynamic batching for unreachable SLOs (coordinated batching + DVFS)")
	fmt.Println()
	fmt.Println("GPU 0's SLO is set below its full-batch latency floor — no clock can")
	fmt.Println("reach it. The BatchAdapter (after the paper's cited Nabavinejad et al.)")
	fmt.Println("shrinks the batch, trading throughput efficiency for feasibility.")
	fmt.Println()
	rows = nil
	for _, r := range bt {
		rows = append(rows, []string{r.Config,
			fmt.Sprintf("%.1f", r.SLOMs),
			fmt.Sprintf("%.2f", r.MissRate),
			fmt.Sprintf("%.0f", r.Throughput),
			fmt.Sprintf("%d", r.FinalBatch),
		})
	}
	fmt.Print(trace.MarkdownTable(
		[]string{"Config", "SLO ms", "Miss rate", "GPU 0 img/s", "Final batch"}, rows))
	fmt.Println()

	cl, err := experiments.ExtensionCluster(33, 60, 2850)
	check(err)
	fmt.Println("### Rack-level budget coordination (3 servers, one 2850 W breaker)")
	fmt.Println()
	rows = nil
	for _, r := range cl {
		rows = append(rows, []string{r.Policy,
			fmt.Sprintf("%.0f", r.SteadyTotalW),
			fmt.Sprintf("%d", r.OverBudgetPeriods),
			fmt.Sprintf("%.0f", r.AggThroughput),
			fmt.Sprintf("%.0f / %.0f / %.0f", r.PerNodeCapW[0], r.PerNodeCapW[1], r.PerNodeCapW[2]),
		})
	}
	fmt.Print(trace.MarkdownTable(
		[]string{"Policy", "Rack power W", "Over-budget periods", "Rack img/s", "Caps (heavy/medium/light)"}, rows))
	fmt.Println()
	fmt.Println("Demand-proportional allocation converts the light server's headroom into")
	fmt.Println("rack throughput; the priority policy trades aggregate throughput for a")
	fmt.Println("guarantee on the high-priority server — both under the same breaker.")
	fmt.Println()

	rb, err := experiments.ExtensionRobustness(5, 100)
	check(err)
	fmt.Println("### R1 — robustness under fault injection (900 W cap)")
	fmt.Println()
	fmt.Printf("Fault schedule `%s`: a 10-period total\n", rb.Schedule)
	fmt.Println("meter dropout, a ±300 W spike burst, and a lossy GPU-1 actuator window,")
	fmt.Println("identically replayed against each configuration. Violations count")
	fmt.Println("periods whose *true* (breaker-side) power exceeded the cap by >2%;")
	fmt.Println("recovery is periods after the dropout cleared until power re-entered")
	fmt.Println("a ±2% band around the controller's own steady state; SLO misses score")
	fmt.Println("latency against fixed reference SLOs (the lax 30% tails, met with")
	fmt.Println("margin at a healthy 900 W).")
	fmt.Println()
	rows = nil
	for _, r := range rb.Rows {
		rec := "never"
		if r.RecoveryPeriods >= 0 {
			rec = fmt.Sprintf("%d", r.RecoveryPeriods)
		}
		rows = append(rows, []string{r.Config,
			fmt.Sprintf("%d", r.CapViolations),
			fmt.Sprintf("%.1f", r.WorstExcessW),
			fmt.Sprintf("%.2f", r.SLOMissRate),
			fmt.Sprintf("%d / %d", r.DegradedPeriods, r.FailSafePeriods),
			rec,
			fmt.Sprintf("%.1f", r.SteadyRMSE),
		})
	}
	fmt.Print(trace.MarkdownTable(
		[]string{"Config", "Cap violations", "Worst excess W", "SLO miss rate",
			"Degraded / fail-safe periods", "Recovery periods", "Steady RMSE W"}, rows))
	fmt.Println()
	fmt.Println("With the fallback disabled the controller reads the blind meter as 0 W")
	fmt.Println("and drives every clock to maximum — 300+ W over the breaker for the")
	fmt.Println("whole dropout. Graceful degradation holds the last good value (plus a")
	fmt.Println("drift guard), then descends toward f_min, keeping the dropout window")
	fmt.Println("violation-free; its one residual violation (18 W, 2.01%) happens later,")
	fmt.Println("inside the lossy-actuator window, bounded by verified-apply retries.")
	fmt.Println("Safe Fixed-Step's standing margin also rides out the faults, but at")
	fmt.Println("6× the tracking error and a 52% SLO miss rate — the price of the")
	fmt.Println("margin, consistent with §6.2.")
	fmt.Println()
	fmt.Println("The same contrast reads directly out of `capgpu-doctor`. Record the")
	fmt.Println("session and diagnose it:")
	fmt.Println()
	fmt.Println("```")
	fmt.Println("capgpu-sim -seed 7 -periods 100 \\")
	fmt.Println("  -faults \"meter-dropout@30+10;meter-spike@55+6*300;actuator-loss@70+5:gpu1*0.7\" \\")
	fmt.Println("  -flight r1.jsonl -events r1-events.jsonl")
	fmt.Println("capgpu-doctor -flight r1.jsonl -events r1-events.jsonl")
	fmt.Println("```")
	fmt.Println()
	fmt.Println("Under graceful degradation the report attributes the k=30–39 blind")
	fmt.Println("window to the degradation ladder (`blind-window-failsafe`, explained —")
	fmt.Println("the controller *knew* it was blind and descended) and exits 0. Re-run")
	fmt.Println("with `-no-degrade` and the same window is diagnosed as")
	fmt.Println("`stale-model-overshoot`: the report quotes the peak true-power excess,")
	fmt.Println("counts the violations, and calls out that graceful degradation was")
	fmt.Println("disabled — the root cause of the 17-violation row above, stated by the")
	fmt.Println("tool rather than inferred from the table. `make doctor-verify`")
	fmt.Println("reproduces both reports; the tests in")
	fmt.Println("`internal/experiments/doctor_test.go` pin their verdicts.")
	fmt.Println()

	lp, err := experiments.ExtensionLLMPhase(42, 96)
	check(err)
	fmt.Printf("### R2 — phase-aware capping of LLM serving (%.0f W cap)\n", lp.SetpointW)
	fmt.Println()
	fmt.Printf("Three continuous-batching LLM pipelines (`%s`)\n", experiments.DefaultLLMSpecDSL)
	fmt.Printf("alternate between a prefill-heavy window (%d of every %d periods: long\n", lp.PrefillLen, lp.CycleLen)
	fmt.Println("prompts arriving in a burst, compute-bound, power strongly")
	fmt.Println("frequency-responsive) and a decode-heavy window (short-prompt steady")
	fmt.Println("state, memory-bound, power nearly clock-flat). The absolute model was")
	fmt.Println("identified on a sub-saturated sweep, so its gains undersell the")
	fmt.Println("saturated prefill-window slope; the phase-blind controller inherits that")
	fmt.Println("calibration gap and rings — cap violations at the top of each burst,")
	fmt.Println("starvation SLO misses at the bottom. The phase-aware controller reads")
	fmt.Println("the observed prefill share from workload counters, rescales its gains by")
	fmt.Println("the blended frequency-power exponent, and while decode-heavy parks the")
	fmt.Println("clocks at a prefill-ready headroom point. TPOT SLOs are per model;")
	fmt.Println("the first regime cycle is excluded as cold-start transient.")
	fmt.Println()
	rows = nil
	for _, r := range lp.Rows {
		rows = append(rows, []string{r.Config,
			fmt.Sprintf("%d", r.CapViolations),
			fmt.Sprintf("%+.1f", r.WorstExcessW),
			fmt.Sprintf("%.3f", r.SLOMissRate),
			fmt.Sprintf("%.1f", r.SteadyRMSE),
			fmt.Sprintf("%.0f", r.MeanTokPerS),
		})
	}
	fmt.Print(trace.MarkdownTable(
		[]string{"Config", "Cap violations", "Worst excess W", "TPOT SLO miss rate",
			"Prefill-window RMSE W", "Mean tok/s"}, rows))
	fmt.Println()
	fmt.Println("Phase awareness wins on both safety axes at once — fewer violations")
	fmt.Println("*and* fewer SLO misses — at identical token throughput: accurate")
	fmt.Println("in-burst gains remove the over-correction that caused the blind")
	fmt.Println("controller's starvation dips, and the decode-window headroom guard")
	fmt.Println("removes its entry spikes. Generic RLS adaptation (R-series above)")
	fmt.Println("chases the regime switch but re-converges too slowly at this cycle")
	fmt.Println("length to close either gap.")
	fmt.Println()
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "capgpu-bench:", err)
		os.Exit(1)
	}
}

// benchEntry is one micro-benchmark's result in the BENCH_<date>.json
// artifact.
type benchEntry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchRunSummary is the run-level tracking quality attached to the
// artifact, so a perf regression that changes behavior (not just speed)
// is visible in the same document.
type benchRunSummary struct {
	Controller string  `json:"controller"`
	SetpointW  float64 `json:"setpoint_w"`
	Periods    int     `json:"periods"`
	MeanW      float64 `json:"mean_w"`
	StdW       float64 `json:"std_w"`
	RMSEW      float64 `json:"rmse_w"`
	MaxW       float64 `json:"max_w"`
	Violations int     `json:"violations"`
}

type benchReport struct {
	Date       string           `json:"date"`
	GoVersion  string           `json:"go_version"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	Seed       int64            `json:"seed"`
	Benchmarks []benchEntry     `json:"benchmarks"`
	Run        *benchRunSummary `json:"run,omitempty"`
}

// measureBench measures the hot control-loop paths with
// testing.Benchmark and assembles the report both the JSON artifact and
// the allocation ratchet consume.
func measureBench(seed int64) benchReport {
	report := benchReport{
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Seed:      seed,
	}

	rig, err := experiments.NewEvaluationRig(seed)
	check(err)
	ctrl, err := experiments.BuildController("capgpu", rig)
	check(err)
	obs := benchObservation()

	run := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		report.Benchmarks = append(report.Benchmarks, benchEntry{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
		fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op %8d B/op %6d allocs/op\n",
			name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	run("capgpu-decide", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctrl.Decide(obs)
		}
	})
	if fa, ok := ctrl.(core.FlightAware); ok {
		fa.SetFlightRecording(true)
		run("capgpu-decide-flight", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctrl.Decide(obs)
			}
		})
		fa.SetFlightRecording(false)
	}
	run("flight-record", func(b *testing.B) {
		rec := flight.NewRecorder(flight.Config{})
		sample := flight.DecisionRecord{
			Period: 1, SetpointW: 900, MeasuredW: 905, TruePowerW: 903,
			CommandedCPUGHz: 2.1, CommandedGPUMHz: []float64{1200, 1100, 1000},
			Controller: &flight.ControllerTrace{
				Gains: []float64{60, 0.2, 0.2, 0.2}, PredictedNextW: 900,
				Knobs: make([]flight.KnobConstraint, 4),
			},
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.Record(sample)
		}
	})
	run("harness-period", func(b *testing.B) {
		b.ReportAllocs()
		hrig, err := experiments.NewEvaluationRig(seed + 1)
		check(err)
		hctrl, err := experiments.BuildController("capgpu", hrig)
		check(err)
		h, err := core.NewHarness(hrig.Server, hctrl, experiments.FixedSetpoint(900))
		check(err)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := h.StepPeriod(i); err != nil {
				b.Fatal(err)
			}
		}
	})

	// LLM serving workload benchmarks: one token-level continuous-
	// batching step at nominal load (llm-step), and the admission-queue
	// path (llm-queue: one inject plus a drain step, so enqueue, admit,
	// and retire all run every iteration). Both are on the per-tick hot
	// path of every LLM-workload session, so they are ratcheted like
	// the control-loop entries.
	lp, err := workload.NewLLMPipeline(workload.LLMConfig{
		Profile: workload.LLMZoo()["llama7b"],
		Spec:    workload.LLMSpec{Model: "llama7b", RateReqPerS: 6, PromptTokens: 512, OutputTokens: 160},
		FgMax:   1350, Seed: seed,
	})
	check(err)
	run("llm-step", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lp.Step(4, 2.4, 900)
		}
	})
	lq, err := workload.NewLLMPipeline(workload.LLMConfig{
		Profile: workload.LLMZoo()["llama7b"],
		Spec:    workload.LLMSpec{Model: "llama7b", RateReqPerS: 0.001, PromptTokens: 64, OutputTokens: 8},
		FgMax:   1350, Seed: seed,
	})
	check(err)
	run("llm-queue", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lq.Inject(64, 8); err != nil {
				b.Fatal(err)
			}
			lq.Step(4, 2.4, 1350)
		}
	})

	// Rack-scaling benchmarks: one coordinator period over synthetic
	// fleets, sequential vs parallel stepping. The fleet is built outside
	// the timed loop; the workers=8 speedup over workers=1 tracks
	// available cores (the equivalence suite pins the output bytes to be
	// identical at every worker count).
	for _, nodes := range []int{16, 128} {
		for _, workers := range []int{1, 8} {
			nodes, workers := nodes, workers
			coord, err := experiments.NewScaleCoordinator(seed, nodes,
				cluster.DemandProportional{}, 0, experiments.ClusterOptions{Workers: workers})
			check(err)
			run(fmt.Sprintf("rack-step/nodes=%d/workers=%d", nodes, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := coord.Step(i); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	// The same rack step with the full telemetry hub attached (store,
	// ledger, derived metrics): the delta against the bare rack-step
	// entries is the per-period observability tax, which the cached
	// series handles keep allocation-flat.
	for _, workers := range []int{1, 8} {
		workers := workers
		coord, err := experiments.NewScaleCoordinator(seed, 16,
			cluster.DemandProportional{}, 0, experiments.ClusterOptions{
				Workers: workers, Telemetry: telemetry.New(telemetry.Config{}),
			})
		check(err)
		run(fmt.Sprintf("rack-step-telemetry/nodes=16/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := coord.Step(i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Hub contention rows: W goroutines pushing one node's period
	// stream each through the hub's one node-state lock.
	for _, workers := range []int{1, 8} {
		workers := workers
		run(fmt.Sprintf("hub-emit/workers=%d", workers), func(b *testing.B) {
			hub := telemetry.New(telemetry.Config{Store: telemetry.StoreConfig{RingCapacity: 256}})
			names := make([]string, workers)
			sample := func(node string, period int) telemetry.PeriodSample {
				return telemetry.PeriodSample{
					Node: node, Period: period, TimeS: float64(period) * 4,
					SetpointW: 900, AvgPowerW: 895, TruePowerW: 894,
					EnergyJ: 3580, CPUFreqGHz: 2.2,
				}
			}
			for w := 0; w < workers; w++ {
				names[w] = fmt.Sprintf("bench%02d", w)
				hub.Period(sample(names[w], 0)) // warm node state outside the timed loop
			}
			per := (b.N + workers - 1) / workers
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 1; i <= per; i++ {
						hub.Period(sample(names[w], i))
					}
				}(w)
			}
			wg.Wait()
		})
	}

	// Run-level tracking quality at the standard 900 W / 60-period
	// session, so behavior changes ride along with the timing numbers.
	res, err := experiments.RunSession("capgpu", seed, 60, experiments.FixedSetpoint(900), nil)
	check(err)
	report.Run = &benchRunSummary{
		Controller: res.Controller,
		SetpointW:  900,
		Periods:    60,
		MeanW:      res.Summary.Mean,
		StdW:       res.Summary.Std,
		RMSEW:      res.Summary.RMSE,
		MaxW:       res.Summary.MaxW,
		Violations: res.Summary.Violations,
	}
	return report
}

// writeBenchJSON writes the BENCH_<date>.json artifact.
func writeBenchJSON(path string, report benchReport) {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		path = filepath.Join(path, "BENCH_"+report.Date+".json")
	}
	f, err := os.Create(path)
	check(err)
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(report)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	check(werr)
	fmt.Println("benchmark report written to", path)
}

// ratchetFloors is the committed BENCH_FLOORS.json: per-benchmark
// allocs/op ceilings. The ratchet direction is one-way — CI fails any
// benchmark above its ceiling, and ceilings are only ever tightened by
// hand when an optimization lands, never raised or auto-lowered by
// tooling.
type ratchetFloors struct {
	Comment     string           `json:"comment,omitempty"`
	AllocsPerOp map[string]int64 `json:"allocs_per_op"`
}

// checkRatchet compares the measured allocs/op against the committed
// ceilings and reports pass/fail. Only allocs/op participates: it is
// reproducible across machines, while ns/op is not. A floor naming a
// benchmark the run did not produce is itself a failure (a renamed or
// deleted benchmark must visit the floors file).
func checkRatchet(report benchReport, path string) bool {
	data, err := os.ReadFile(path)
	check(err)
	var fl ratchetFloors
	if err := json.Unmarshal(data, &fl); err != nil {
		fmt.Fprintf(os.Stderr, "capgpu-bench: parsing %s: %v\n", path, err)
		os.Exit(2)
	}
	if len(fl.AllocsPerOp) == 0 {
		fmt.Fprintf(os.Stderr, "capgpu-bench: %s declares no allocs_per_op ceilings\n", path)
		os.Exit(2)
	}
	got := make(map[string]int64, len(report.Benchmarks))
	for _, e := range report.Benchmarks {
		got[e.Name] = e.AllocsPerOp
	}
	names := make([]string, 0, len(fl.AllocsPerOp))
	for name := range fl.AllocsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	ok := true
	for _, name := range names {
		ceiling := fl.AllocsPerOp[name]
		cur, have := got[name]
		switch {
		case !have:
			ok = false
			fmt.Printf("ratchet FAIL %-28s benchmark missing from this run (ceiling %d)\n", name, ceiling)
		case cur > ceiling:
			ok = false
			fmt.Printf("ratchet FAIL %-28s %d allocs/op exceeds ceiling %d\n", name, cur, ceiling)
		case cur < ceiling:
			fmt.Printf("ratchet ok   %-28s %d allocs/op (ceiling %d — can be tightened)\n", name, cur, ceiling)
		default:
			fmt.Printf("ratchet ok   %-28s %d allocs/op at ceiling\n", name, cur)
		}
	}
	if ok {
		fmt.Printf("ratchet: %d benchmark(s) within committed allocation ceilings\n", len(names))
	} else {
		fmt.Fprintln(os.Stderr, "capgpu-bench: allocation ratchet failed — an optimization regressed, or a benchmark was renamed without updating "+path)
	}
	return ok
}

// benchObservation is a representative steady-state observation for the
// Decide micro-benchmarks.
func benchObservation() core.Observation {
	return core.Observation{
		Period:            1,
		AvgPowerW:         950,
		SetpointW:         900,
		CPUFreqGHz:        2.0,
		GPUFreqMHz:        []float64{1200, 1150, 1100},
		CPUThroughputNorm: 0.8,
		GPUThroughputNorm: []float64{0.9, 0.7, 0.5},
		CPUUtil:           0.8,
		GPUUtil:           []float64{0.9, 0.7, 0.5},
		GPULatencyS:       []float64{0.05, 0.06, 0.07},
	}
}
