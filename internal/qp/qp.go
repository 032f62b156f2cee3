// Package qp solves the strictly convex quadratic programs that arise
// from the CapGPU model-predictive controller:
//
//	minimize   ½ xᵀHx + gᵀx
//	subject to A x ≤ b
//
// with H symmetric positive definite. The primary solver is a primal
// active-set method (Nocedal & Wright, Algorithm 16.3), which solves the
// small MPC subproblems (≤ ~20 variables for an 8-GPU server with a
// control horizon of 2) exactly in a handful of iterations. A projected
// gradient solver for pure box constraints is provided as a fallback and
// as a cross-check in tests.
package qp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// Problem describes a convex QP. H must be symmetric positive definite.
// The constraint set is {x : A x ≤ b}; A may be nil for an unconstrained
// problem.
type Problem struct {
	H *mat.Mat  // n x n, symmetric positive definite
	G []float64 // n, linear term
	A *mat.Mat  // m x n inequality matrix (may be nil)
	B []float64 // m inequality bounds
}

// Result reports the solution of a QP.
type Result struct {
	X          []float64 // minimizer
	Obj        float64   // objective value at X
	Iterations int       // active-set iterations used
	Active     []int     // indices of constraints active at the solution
	Lambda     []float64 // Lagrange multipliers (per constraint; 0 if inactive)
}

// ErrInfeasible is returned when no point satisfies the constraints.
var ErrInfeasible = errors.New("qp: constraints are infeasible")

// ErrMaxIterations is returned when the active-set loop fails to
// terminate; for strictly convex problems this indicates degenerate
// constraint geometry beyond the solver's cycling guard.
var ErrMaxIterations = errors.New("qp: active-set iteration limit exceeded")

const (
	featol  = 1e-9 // constraint feasibility tolerance
	opttol  = 1e-10
	maxIter = 500
)

// Objective evaluates ½ xᵀHx + gᵀx.
func (p *Problem) Objective(x []float64) float64 {
	return p.objective(x, make([]float64, len(x)))
}

// objective evaluates ½ xᵀHx + gᵀx, using hx as scratch for Hx.
func (p *Problem) objective(x, hx []float64) float64 {
	p.H.MulVecInto(hx, x)
	return 0.5*mat.Dot(x, hx) + mat.Dot(p.G, x)
}

// gradient returns Hx + g.
func (p *Problem) gradient(x []float64) []float64 {
	grad := make([]float64, len(x))
	p.gradientInto(grad, x)
	return grad
}

// gradientInto writes Hx + g into grad.
func (p *Problem) gradientInto(grad, x []float64) {
	p.H.MulVecInto(grad, x)
	mat.Axpy(1, p.G, grad)
}

// numConstraints returns the number of inequality rows.
func (p *Problem) numConstraints() int {
	if p.A == nil {
		return 0
	}
	return p.A.Rows
}

func (p *Problem) validate() error {
	n := len(p.G)
	if p.H == nil || p.H.Rows != n || p.H.Cols != n {
		return fmt.Errorf("qp: H must be %dx%d", n, n)
	}
	if p.A != nil {
		if p.A.Cols != n {
			return fmt.Errorf("qp: A has %d cols, want %d", p.A.Cols, n)
		}
		if len(p.B) != p.A.Rows {
			return fmt.Errorf("qp: b has %d entries, want %d", len(p.B), p.A.Rows)
		}
	}
	return nil
}

// Solver is a reusable active-set workspace: it holds the iterate,
// gradient, step, working set, KKT matrix, right-hand side and LU
// storage, so a Solver that has seen a problem of a given size solves
// the next one of that size or smaller without allocating. The zero
// value is ready to use. A Solver is not safe for concurrent use.
//
// The Result returned by Solve, and its X, Active and Lambda slices,
// alias the workspace: they stay valid only until the next call to
// Solve on the same Solver. Copy what must outlive it.
//
// Reuse never changes a result: every buffer is reinitialized per
// call, and the arithmetic is the same sequence of floating-point
// operations as on a fresh Solver, so the output is bit-identical.
type Solver struct {
	x, grad, hx []float64
	sol, rhs    []float64
	norms       []float64
	lambda      []float64
	working     []int
	active      []int
	inWorking   []bool
	kkt         mat.Mat
	lu          mat.LU
	res         Result
}

// Solve minimizes the QP starting from x0, which must be feasible. If x0
// is nil, Solve first computes a feasible point with FindFeasible.
func Solve(p *Problem, x0 []float64) (*Result, error) {
	return new(Solver).Solve(p, x0)
}

// Solve minimizes the QP starting from x0 (see the package-level Solve)
// in the solver's workspace. x0 may alias the X of this solver's
// previous Result.
func (s *Solver) Solve(p *Problem, x0 []float64) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := len(p.G)
	m := p.numConstraints()

	if x0 != nil {
		if len(x0) != n {
			return nil, fmt.Errorf("qp: x0 has %d entries, want %d", len(x0), n)
		}
		s.x = append(s.x[:0], x0...)
		if viol := maxViolation(p, s.x); viol > 1e-6 {
			// Repair rather than reject: callers hand in the previous
			// period's operating point, which can drift infeasible when
			// SLO bounds tighten between periods.
			if err := s.findFeasible(p.A, p.B); err != nil {
				return nil, err
			}
		}
	} else {
		s.x = mat.Reuse(s.x, n)
		if err := s.findFeasible(p.A, p.B); err != nil {
			return nil, err
		}
	}
	x := s.x
	s.grad = mat.Reuse(s.grad, n)
	s.hx = mat.Reuse(s.hx, n)

	// Working set: indices of constraints treated as equalities. It
	// never holds more than m distinct rows, so appends stay in place.
	s.working = mat.Reuse(s.working, m)
	working := s.working[:0]
	inWorking := mat.Reuse(s.inWorking, m)
	s.inWorking = inWorking
	for i := 0; i < m; i++ {
		if math.Abs(residual(p, x, i)) <= featol {
			working = append(working, i)
			inWorking[i] = true
		}
	}
	// Guard against an over-determined initial working set.
	if len(working) > n {
		working = working[:n]
		for i := range inWorking {
			inWorking[i] = false
		}
		for _, idx := range working {
			inWorking[idx] = true
		}
	}

	for iter := 1; iter <= maxIter; iter++ {
		step, lam, err := s.eqpStep(p, x, working)
		if err != nil {
			return nil, err
		}
		// Treat the step as null when it is tiny OR when it cannot
		// reduce the objective beyond rounding noise; the latter guards
		// against stagnation loops on ill-conditioned Hessians (the MPC
		// tracking term has condition numbers ~1e7). s.grad still holds
		// the gradient at x from eqpStep.
		p.H.MulVecInto(s.hx, step)
		predDecrease := -(mat.Dot(s.grad, step) + 0.5*mat.Dot(step, s.hx))
		if mat.Norm2(step) <= opttol*(1+mat.Norm2(x)) ||
			predDecrease <= 1e-12*(1+math.Abs(p.objective(x, s.hx))) {
			// No progress possible on the working set: check multipliers.
			minLam, minIdx := 0.0, -1
			for k, wi := range working {
				if lam[k] < minLam {
					minLam, minIdx = lam[k], wi
				}
			}
			if minIdx < 0 {
				// KKT conditions hold; done.
				s.lambda = mat.Reuse(s.lambda, m)
				for k, wi := range working {
					s.lambda[wi] = lam[k]
				}
				s.active = append(s.active[:0], working...)
				s.res = Result{
					X:          x,
					Obj:        p.objective(x, s.hx),
					Iterations: iter,
					Active:     s.active,
					Lambda:     s.lambda,
				}
				return &s.res, nil
			}
			// Drop the most negative multiplier's constraint.
			working = removeIndex(working, minIdx)
			inWorking[minIdx] = false
			continue
		}
		// Line search to the nearest blocking constraint.
		alpha, blocking := 1.0, -1
		for i := 0; i < m; i++ {
			if inWorking[i] {
				continue
			}
			row := p.A.RowView(i)
			as := mat.Dot(row, step)
			if as <= featol {
				continue // moving away from or parallel to this face
			}
			room := p.B[i] - mat.Dot(row, x)
			if room < 0 {
				room = 0
			}
			if a := room / as; a < alpha {
				alpha, blocking = a, i
			}
		}
		mat.Axpy(alpha, step, x)
		if blocking >= 0 {
			working = append(working, blocking)
			inWorking[blocking] = true
		}
	}
	return nil, ErrMaxIterations
}

// eqpStep solves the equality-constrained subproblem
//
//	min ½(x+s)ᵀH(x+s) + gᵀ(x+s)  s.t.  A_w s = 0
//
// via the KKT system, leaving the gradient at x in s.grad. It returns
// the step and the Lagrange multipliers of the working-set rows, both
// views into the workspace.
func (s *Solver) eqpStep(p *Problem, x []float64, working []int) (step, lam []float64, err error) {
	n := len(p.G)
	w := len(working)
	dim := n + w
	grad := s.grad
	p.gradientInto(grad, x)
	s.kkt.Reset(dim, dim)
	kkt := s.kkt.Data
	for i := 0; i < n; i++ {
		copy(kkt[i*dim:i*dim+n], p.H.RowView(i))
	}
	for k, ci := range working {
		row := p.A.RowView(ci)
		for j := 0; j < n; j++ {
			kkt[(n+k)*dim+j] = row[j]
			kkt[j*dim+n+k] = row[j]
		}
	}
	s.rhs = mat.Reuse(s.rhs, dim)
	for i := 0; i < n; i++ {
		s.rhs[i] = -grad[i]
	}
	s.sol = mat.Reuse(s.sol, dim)
	if err := s.lu.Refactor(&s.kkt); err != nil {
		// A degenerate working set (linearly dependent rows) can make the
		// KKT matrix singular; perturb with tiny regularization.
		for k := 0; k < w; k++ {
			kkt[(n+k)*dim+n+k] += -1e-10
		}
		if err := s.lu.Refactor(&s.kkt); err != nil {
			return nil, nil, fmt.Errorf("qp: KKT system singular: %w", err)
		}
	}
	s.lu.SolveInto(s.sol, s.rhs)
	return s.sol[:n], s.sol[n:], nil
}

func residual(p *Problem, x []float64, i int) float64 {
	return mat.Dot(p.A.RowView(i), x) - p.B[i]
}

func maxViolation(p *Problem, x []float64) float64 {
	v := 0.0
	for i := 0; i < p.numConstraints(); i++ {
		if r := residual(p, x, i); r > v {
			v = r
		}
	}
	return v
}

func removeIndex(s []int, val int) []int {
	out := s[:0]
	for _, v := range s {
		if v != val {
			out = append(out, v)
		}
	}
	return out
}

// FindFeasible returns a point satisfying A x ≤ b, starting the search
// at hint, using the Agmon–Motzkin relaxation method: repeated cyclic
// projection onto the half-spaces of violated rows. For feasible systems
// with nonempty interior (the MPC's frequency polytopes) convergence is
// geometric.
func FindFeasible(a *mat.Mat, b []float64, hint []float64) ([]float64, error) {
	s := &Solver{x: append([]float64(nil), hint...)}
	if err := s.findFeasible(a, b); err != nil {
		return nil, err
	}
	return s.x, nil
}

// findFeasible runs FindFeasible in place on s.x.
func (s *Solver) findFeasible(a *mat.Mat, b []float64) error {
	x := s.x
	if a == nil || a.Rows == 0 {
		return nil
	}
	s.norms = mat.Reuse(s.norms, a.Rows)
	norms := s.norms
	for i := 0; i < a.Rows; i++ {
		row := a.RowView(i)
		norms[i] = mat.Dot(row, row)
	}
	const relax = 1.5 // over-relaxation accelerates convergence
	for pass := 0; pass < 1000; pass++ {
		worst := 0.0
		for i := 0; i < a.Rows; i++ {
			if norms[i] == 0 {
				if b[i] < -featol {
					return ErrInfeasible // 0·x ≤ negative
				}
				continue
			}
			row := a.RowView(i)
			r := mat.Dot(row, x) - b[i]
			if r > featol {
				mat.Axpy(-relax*r/norms[i], row, x)
				if r > worst {
					worst = r
				}
			}
		}
		if worst <= featol {
			return nil
		}
	}
	if maxViol(a, b, x) <= 1e-6 {
		return nil
	}
	return ErrInfeasible
}

func maxViol(a *mat.Mat, b, x []float64) float64 {
	v := 0.0
	for i := 0; i < a.Rows; i++ {
		if r := mat.Dot(a.RowView(i), x) - b[i]; r > v {
			v = r
		}
	}
	return v
}
