package mpc

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/qp"
)

// randomMPCProblem draws a strictly convex condensed MPC problem the way
// Compute builds one at the paper's horizons and weights: a random knob
// count (one CPU plus GPUs), control horizon, plant gains and frequency
// ranges, throughput weights, SLO floors (some above the operating
// point, so the zero move is infeasible) and a random warm start. It
// returns the controller that condensed it, for the SLSQP cross-check.
func randomMPCProblem(t *testing.T, rng *rand.Rand) (*Controller, *qp.Problem, []float64) {
	t.Helper()
	n := 1 + rng.Intn(6)
	m := 1 + rng.Intn(3)
	gains := make([]float64, n)
	fmin := make([]float64, n)
	fmax := make([]float64, n)
	for i := range gains {
		if i == 0 { // CPU: W/GHz over a GHz range
			gains[i], fmin[i], fmax[i] = 20+60*rng.Float64(), 1.0, 2.0+rng.Float64()
		} else { // GPU: W/MHz over a MHz range
			gains[i], fmin[i], fmax[i] = 0.05+0.3*rng.Float64(), 300+200*rng.Float64(), 1200+600*rng.Float64()
		}
	}
	c, err := New(gains, fmin, fmax, Config{M: m})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	lo := make([]float64, n)
	tp := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
		tp[i] = rng.Float64()
		if rng.Intn(3) == 0 {
			lo[i] = 0.95 * rng.Float64() // an SLO floor, possibly above x
		}
	}
	bias := 400 * rng.NormFloat64()
	p := mpcProblem(c, bias, x, c.penaltyWeights(tp), lo)
	x0 := make([]float64, m*n)
	for i := range x0 {
		x0[i] = rng.NormFloat64() // often infeasible: exercises the repair
	}
	return c, p, x0
}

// mpcProblem condenses one period's QP over all knobs into a fresh
// workspace.
func mpcProblem(c *Controller, bias float64, x, r, lo []float64) *qp.Problem {
	ws := new(workspace)
	c.condense(ws, bias, x, r, c.gtil)
	c.constraints(ws, x, lo)
	return &qp.Problem{H: &ws.h, G: ws.g, A: &ws.a, B: ws.b}
}

// kktResiduals returns the worst stationarity, primal-feasibility,
// dual-feasibility and complementary-slackness residuals of a QP result.
// Stationarity and complementarity are relative to the size of the
// gradient's terms (the tracking term makes H ~1e5 in normalized
// units); feasibility is absolute in those units.
func kktResiduals(p *qp.Problem, r *qp.Result) (stat, primal, dual, comp float64) {
	grad := p.H.MulVec(r.X)
	scale := 1 + mat.Norm2(grad) + mat.Norm2(p.G)
	mat.Axpy(1, p.G, grad)
	for i := 0; i < p.A.Rows; i++ {
		row := p.A.Data[i*p.A.Cols : (i+1)*p.A.Cols]
		mat.Axpy(r.Lambda[i], row, grad)
		res := mat.Dot(row, r.X) - p.B[i]
		primal = math.Max(primal, res)
		dual = math.Max(dual, -r.Lambda[i])
		comp = math.Max(comp, math.Abs(r.Lambda[i]*res))
	}
	return mat.Norm2(grad) / scale, primal, dual, comp / scale
}

// TestQuickMPCSolverKKTAndSLSQP guards the active-set solver: on random
// strictly convex MPC-shaped problems its optimum satisfies the KKT
// conditions and matches the independent SQP solver (the A4 path).
//
// Two known solver limits are counted rather than failed, each bounded:
//   - the active-set loop can stagnate at a vertex of an ill-conditioned
//     problem (a full working set whose KKT solve leaves a round-off step
//     above the null-step threshold) and return ErrMaxIterations, on
//     about one draw in 20 000 (seed -6823941520455911824 is one). That
//     is a reported failure, not a wrong optimum, and at most 1% of draws
//     may hit it;
//   - SLSQP stalls in its merit line search or its QP subproblem on about
//     one draw in five (more often with more knobs). Those draws are
//     KKT-checked only, and the cross-check must run on most draws.
func TestQuickMPCSolverKKTAndSLSQP(t *testing.T) {
	draws, stalled, crossChecked := 0, 0, 0
	f := func(seed int64) bool {
		draws++
		rng := rand.New(rand.NewSource(seed))
		c, p, x0 := randomMPCProblem(t, rng)
		res, err := qp.Solve(p, x0)
		if errors.Is(err, qp.ErrMaxIterations) {
			stalled++
			t.Logf("seed %d: active-set stalled (known vertex stagnation): %v", seed, err)
			return true
		}
		if err != nil {
			t.Logf("seed %d: active-set: %v", seed, err)
			return false
		}
		stat, primal, dual, comp := kktResiduals(p, res)
		if stat > 1e-8 || primal > 1e-8 || dual > 0 || comp > 1e-9 {
			t.Logf("seed %d: KKT residuals stat %.3g primal %.3g dual %.3g comp %.3g", seed, stat, primal, dual, comp)
			return false
		}
		sq, err := c.solveSLSQP(p.H, p.G, p.A, p.B)
		if err != nil {
			return true
		}
		crossChecked++
		// The active-set optimum is exact: SLSQP may match it to its own
		// convergence tolerance, not beat it by more than rounding.
		objQP, objSQ := p.Objective(res.X), p.Objective(sq.X)
		if objQP-objSQ > 1e-7*(1+math.Abs(objQP)) || objSQ-objQP > 1e-6*(1+math.Abs(objQP)) {
			t.Logf("seed %d: objective active-set %.12g vs slsqp %.12g", seed, objQP, objSQ)
			return false
		}
		for i := range res.X {
			if math.Abs(res.X[i]-sq.X[i]) > 1e-4 {
				t.Logf("seed %d: x[%d] active-set %.9g vs slsqp %.9g", seed, i, res.X[i], sq.X[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if 100*stalled > draws {
		t.Fatalf("active-set stalled on %d of %d draws", stalled, draws)
	}
	if 2*crossChecked < draws {
		t.Fatalf("SLSQP converged on only %d of %d draws: the cross-check did not run", crossChecked, draws)
	}
	t.Logf("KKT-checked %d draws (%d stalled), cross-checked %d against SLSQP", draws-stalled, stalled, crossChecked)
}
