// Package slsqp implements a sequential least-squares quadratic
// programming method for smooth nonlinear programs of the form
//
//	minimize   f(x)
//	subject to c_i(x) ≤ 0   (i = 1..m)
//	           lo ≤ x ≤ hi
//
// The paper implements its MPC solver "with SLSQP in Python" (§4.3);
// this package provides the equivalent in Go so the controller can be
// run with either the exact active-set QP (internal/qp) or this general
// SQP, and the two are compared in an ablation benchmark. The method is
// the classic damped-BFGS SQP with an ℓ1 merit-function line search
// (Nocedal & Wright, ch. 18), with each subproblem solved by the
// active-set QP solver.
package slsqp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/qp"
)

// Objective is a smooth scalar function with an optional analytic
// gradient; when Grad is nil a central finite difference is used.
type Objective struct {
	Func func(x []float64) float64
	Grad func(x []float64) []float64
}

// Constraint is a smooth scalar inequality c(x) ≤ 0 with an optional
// analytic gradient.
type Constraint struct {
	Func func(x []float64) float64
	Grad func(x []float64) []float64
}

// Params tunes the optimizer; zero values select the defaults noted.
type Params struct {
	MaxIter int     // default 100
	Tol     float64 // KKT/step tolerance, default 1e-8
	FDStep  float64 // finite-difference step, default 1e-6
}

// Result reports the outcome of Minimize.
type Result struct {
	X          []float64
	Obj        float64
	Iterations int
	Converged  bool
}

// ErrLineSearch is returned when the merit line search cannot make
// progress; the current best iterate is still returned in Result.
var ErrLineSearch = errors.New("slsqp: line search failed to make progress")

func (p *Params) defaults() Params {
	out := *p
	if out.MaxIter == 0 {
		out.MaxIter = 100
	}
	if out.Tol == 0 {
		out.Tol = 1e-8
	}
	if out.FDStep == 0 {
		out.FDStep = 1e-6
	}
	return out
}

func gradOf(f func([]float64) float64, g func([]float64) []float64, x []float64, h float64) []float64 {
	if g != nil {
		return g(x)
	}
	n := len(x)
	grad := make([]float64, n)
	xp := append([]float64(nil), x...)
	for i := 0; i < n; i++ {
		step := h * math.Max(1, math.Abs(x[i]))
		xp[i] = x[i] + step
		fp := f(xp)
		xp[i] = x[i] - step
		fm := f(xp)
		xp[i] = x[i]
		grad[i] = (fp - fm) / (2 * step)
	}
	return grad
}

// Minimize runs SLSQP from x0. Bounds lo/hi may be nil for an
// unbounded problem. x0 is clamped into the bounds before starting.
func Minimize(obj Objective, cons []Constraint, lo, hi, x0 []float64, params Params) (*Result, error) {
	if obj.Func == nil {
		return nil, fmt.Errorf("slsqp: nil objective")
	}
	pr := params.defaults()
	n := len(x0)
	if lo != nil && len(lo) != n {
		return nil, fmt.Errorf("slsqp: lo has %d entries, want %d", len(lo), n)
	}
	if hi != nil && len(hi) != n {
		return nil, fmt.Errorf("slsqp: hi has %d entries, want %d", len(hi), n)
	}
	x := append([]float64(nil), x0...)
	clampInto(x, lo, hi)

	b := mat.Identity(n) // BFGS approximation of the Lagrangian Hessian
	grad := gradOf(obj.Func, obj.Grad, x, pr.FDStep)
	mu := 1.0 // merit penalty weight
	// One QP workspace serves every subproblem. Its result aliases the
	// workspace, so each iteration finishes with sol before the next
	// Solve; x0 starts every subproblem at d = 0.
	var qs qp.Solver
	zero := make([]float64, n)

	for iter := 1; iter <= pr.MaxIter; iter++ {
		// Build the QP subproblem around x:
		//   min ½ dᵀB d + ∇fᵀ d   s.t. ∇c_iᵀ d ≤ −c_i(x),  lo−x ≤ d ≤ hi−x.
		m := len(cons)
		rows := m
		if lo != nil {
			rows += n
		}
		if hi != nil {
			rows += n
		}
		var a *mat.Mat
		var rhs []float64
		if rows > 0 {
			a = mat.New(rows, n)
			rhs = make([]float64, rows)
		}
		r := 0
		cvals := make([]float64, m)
		for i, c := range cons {
			cv := c.Func(x)
			cvals[i] = cv
			cg := gradOf(c.Func, c.Grad, x, pr.FDStep)
			for j := 0; j < n; j++ {
				a.Set(r, j, cg[j])
			}
			rhs[r] = -cv
			r++
		}
		if hi != nil {
			for j := 0; j < n; j++ {
				a.Set(r, j, 1)
				rhs[r] = hi[j] - x[j]
				r++
			}
		}
		if lo != nil {
			for j := 0; j < n; j++ {
				a.Set(r, j, -1)
				rhs[r] = x[j] - lo[j]
				r++
			}
		}
		sub := &qp.Problem{H: b, G: grad, A: a, B: rhs}
		sol, err := qs.Solve(sub, zero)
		if err != nil {
			// Infeasible linearization: relax the constraint rows
			// (elastic mode) by allowing the current violation.
			if a != nil {
				for i := 0; i < m; i++ {
					if rhs[i] < 0 {
						rhs[i] = 0
					}
				}
				sol, err = qs.Solve(sub, zero)
			}
			if err != nil {
				return &Result{X: x, Obj: obj.Func(x), Iterations: iter}, fmt.Errorf("slsqp: subproblem: %w", err)
			}
		}
		d := sol.X
		if mat.Norm2(d) <= pr.Tol*(1+mat.Norm2(x)) {
			return &Result{X: x, Obj: obj.Func(x), Iterations: iter, Converged: true}, nil
		}

		// Update the penalty weight so the merit function decreases
		// along d (standard rule: mu > max multiplier).
		for i := 0; i < m; i++ {
			if lam := sol.Lambda[i]; lam > mu {
				mu = 2 * lam
			}
		}

		// ℓ1 merit line search.
		//lint:ignore hotalloc one merit closure per SQP outer iteration; mu changes each round so the capture is inherent
		merit := func(y []float64) float64 {
			v := obj.Func(y)
			for _, c := range cons {
				if cv := c.Func(y); cv > 0 {
					v += mu * cv
				}
			}
			return v
		}
		m0 := merit(x)
		// Directional derivative estimate of merit at x along d.
		dd := mat.Dot(grad, d)
		for i, cv := range cvals {
			if cv > 0 {
				cg := gradOf(cons[i].Func, cons[i].Grad, x, pr.FDStep)
				dd += mu * mat.Dot(cg, d)
			}
		}
		alpha := 1.0
		var xNew []float64
		ok := false
		// The absolute term tolerates catastrophic cancellation when the
		// objective is many orders of magnitude larger than the step's
		// effect (common near convergence of the MPC subproblems).
		noise := 1e-12 * (1 + math.Abs(m0))
		for ls := 0; ls < 30; ls++ {
			xNew = append([]float64(nil), x...)
			mat.Axpy(alpha, d, xNew)
			clampInto(xNew, lo, hi)
			if merit(xNew) <= m0+1e-4*alpha*math.Min(dd, 0)+noise {
				ok = true
				break
			}
			alpha *= 0.5
		}
		if !ok {
			// A failed line search on a vanishing step is convergence,
			// not an error: the QP direction has shrunk below what the
			// merit function can resolve.
			if mat.Norm2(d) <= 1e-5*(1+mat.Norm2(x)) {
				return &Result{X: x, Obj: obj.Func(x), Iterations: iter, Converged: true}, nil
			}
			return &Result{X: x, Obj: obj.Func(x), Iterations: iter}, ErrLineSearch
		}

		// Damped BFGS update of B using the Lagrangian gradient change.
		gradNew := gradOf(obj.Func, obj.Grad, xNew, pr.FDStep)
		lgrad := append([]float64(nil), grad...)
		lgradNew := append([]float64(nil), gradNew...)
		for i, c := range cons {
			lam := sol.Lambda[i]
			if lam == 0 {
				continue
			}
			mat.Axpy(lam, gradOf(c.Func, c.Grad, x, pr.FDStep), lgrad)
			mat.Axpy(lam, gradOf(c.Func, c.Grad, xNew, pr.FDStep), lgradNew)
		}
		s := mat.SubVec(xNew, x)
		y := mat.SubVec(lgradNew, lgrad)
		b = dampedBFGS(b, s, y)

		x = xNew
		grad = gradNew
	}
	return &Result{X: x, Obj: obj.Func(x), Iterations: pr.MaxIter}, nil
}

// dampedBFGS applies Powell's damped BFGS update, keeping B positive
// definite even when the curvature condition sᵀy > 0 fails.
func dampedBFGS(b *mat.Mat, s, y []float64) *mat.Mat {
	bs := b.MulVec(s)
	sBs := mat.Dot(s, bs)
	if sBs <= 1e-14 {
		return b
	}
	sy := mat.Dot(s, y)
	theta := 1.0
	if sy < 0.2*sBs {
		theta = 0.8 * sBs / (sBs - sy)
	}
	// r = theta*y + (1-theta)*B s  guarantees sᵀr ≥ 0.2 sᵀBs > 0.
	r := mat.AddVec(mat.ScaleVec(theta, y), mat.ScaleVec(1-theta, bs))
	sr := mat.Dot(s, r)
	if sr <= 1e-14 {
		return b
	}
	// B ← B − (B s sᵀ B)/(sᵀB s) + (r rᵀ)/(sᵀ r).
	upd := b.SubMat(mat.OuterProduct(bs, bs).Scale(1 / sBs)).AddMat(mat.OuterProduct(r, r).Scale(1 / sr))
	// Re-symmetrize against numerical drift.
	return upd.AddMat(upd.T()).Scale(0.5)
}

func clampInto(x, lo, hi []float64) {
	for i := range x {
		if lo != nil && x[i] < lo[i] {
			x[i] = lo[i]
		}
		if hi != nil && x[i] > hi[i] {
			x[i] = hi[i]
		}
	}
}
