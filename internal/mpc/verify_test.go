package mpc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/qp"
)

// eq9Cost evaluates the paper's Eq. (9) cost literally, by simulation of
// the prediction model over the horizon — an independent check of the
// condensed QP. D is the normalized decision vector (M moves of n
// knobs), x the normalized operating point, bias = p(k) − P_s.
func eq9Cost(c *Controller, D []float64, bias float64, x, r []float64) float64 {
	n := len(c.gains)
	cost := 0.0
	// Tracking term: predicted error after j periods.
	for j := 1; j <= c.cfg.P; j++ {
		moves := j
		if moves > c.cfg.M {
			moves = c.cfg.M
		}
		err := bias
		for b := 0; b < moves; b++ {
			for p := 0; p < n; p++ {
				err += c.gtil[p] * D[b*n+p]
			}
		}
		cost += c.cfg.Q * err * err
	}
	// Control penalty: position above f_min after each move.
	for i := 0; i < c.cfg.M; i++ {
		for p := 0; p < n; p++ {
			pos := x[p]
			for b := 0; b <= i; b++ {
				pos += D[b*n+p]
			}
			cost += r[p] * pos * pos
		}
	}
	return cost
}

// TestCondensedQPMatchesEq9 checks that ½DᵀHD + gᵀD differs from the
// literal Eq. (9) cost only by a D-independent constant, for random
// decisions and operating points.
func TestCondensedQPMatchesEq9(t *testing.T) {
	c := testController(t, Config{})
	n := 4
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bias := 200 * rng.NormFloat64()
		x := make([]float64, n)
		r := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
			r[i] = 0.5 + 3*rng.Float64()
		}
		ws := new(workspace)
		c.condense(ws, bias, x, r, c.gtil)
		h, g := &ws.h, ws.g
		// Constant offset = cost at D = 0.
		zero := make([]float64, c.cfg.M*n)
		c0 := eq9Cost(c, zero, bias, x, r)
		for trial := 0; trial < 5; trial++ {
			D := make([]float64, c.cfg.M*n)
			for i := range D {
				D[i] = 0.3 * rng.NormFloat64()
			}
			// Quadratic form value.
			hd := h.MulVec(D)
			quad := 0.0
			for i := range D {
				quad += 0.5*D[i]*hd[i] + g[i]*D[i]
			}
			lit := eq9Cost(c, D, bias, x, r)
			if math.Abs((quad+c0)-lit) > 1e-6*(1+math.Abs(lit)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestComputeBeatsRandomFeasiblePoints: the QP solution's Eq. (9) cost
// is no worse than any random feasible decision's.
func TestComputeBeatsRandomFeasiblePoints(t *testing.T) {
	c := testController(t, Config{DeadbandW: -1})
	n := 4
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		bias := 150 * rng.NormFloat64()
		x := make([]float64, n)
		r := make([]float64, n)
		for i := range x {
			x[i] = 0.2 + 0.6*rng.Float64()
			r[i] = 0.5 + 3*rng.Float64()
		}
		res, err := qp.Solve(mpcProblem(c, bias, x, r, make([]float64, n)), make([]float64, c.cfg.M*n))
		if err != nil {
			t.Fatal(err)
		}
		best := eq9Cost(c, res.X, bias, x, r)
		// Random feasible candidates: independent per-knob cumulative
		// moves within the box, decomposed back into per-step moves.
		for cand := 0; cand < 30; cand++ {
			D := make([]float64, c.cfg.M*n)
			for p := 0; p < n; p++ {
				c1 := -x[p] + rng.Float64()*1.0 // cumulative after move 1 in [-x, 1-x]
				c2 := -x[p] + rng.Float64()*1.0
				D[p] = c1
				D[n+p] = c2 - c1
			}
			if eq9Cost(c, D, bias, x, r) < best-1e-6*(1+math.Abs(best)) {
				t.Fatalf("trial %d: random feasible point beats the QP solution", trial)
			}
		}
	}
}

func TestWarmStartReducesIterations(t *testing.T) {
	run := func(cold bool) (totalIters int) {
		c := testController(t, Config{ColdStart: cold})
		f := []float64{1.4, 700, 700, 700}
		p := 800.0
		gains := []float64{55, 0.16, 0.16, 0.16}
		for k := 0; k < 40; k++ {
			d, diag, err := c.Compute(p, 950, f, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			totalIters += diag.SolverIterations
			for i := range f {
				f[i] += d[i]
				p += gains[i] * d[i]
			}
		}
		return totalIters
	}
	warm := run(false)
	cold := run(true)
	if warm > cold {
		t.Fatalf("warm-started iterations %d exceed cold %d", warm, cold)
	}
}

func TestWarmStartSameTrajectoryAsCold(t *testing.T) {
	// Warm starting must not change the solution, only the effort.
	runFreqs := func(cold bool) []float64 {
		c := testController(t, Config{ColdStart: cold})
		f := []float64{1.4, 700, 700, 700}
		p := 800.0
		gains := []float64{55, 0.16, 0.16, 0.16}
		for k := 0; k < 30; k++ {
			d, _, err := c.Compute(p, 950, f, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range f {
				f[i] += d[i]
				p += gains[i] * d[i]
			}
		}
		return f
	}
	warm := runFreqs(false)
	cold := runFreqs(true)
	for i := range warm {
		if math.Abs(warm[i]-cold[i]) > 1e-6*(1+math.Abs(cold[i])) {
			t.Fatalf("knob %d trajectory differs: warm %g vs cold %g", i, warm[i], cold[i])
		}
	}
}
