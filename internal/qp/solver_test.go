package qp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mat"
)

// mpcLikeProblem draws a strictly convex QP over n variables with the
// MPC's constraint shape: a ±1 bound pair per variable plus a few dense
// rows, with some bounds tight enough that x = 0 is infeasible.
func mpcLikeProblem(rng *rand.Rand, n int) *Problem {
	h := randSPD(rng, n)
	g := make([]float64, n)
	for i := range g {
		g[i] = 4 * rng.NormFloat64()
	}
	extra := rng.Intn(3)
	a := mat.New(2*n+extra, n)
	b := make([]float64, 2*n+extra)
	for i := 0; i < n; i++ {
		lo := rng.Float64() - 0.3 // sometimes > 0: the zero start violates it
		a.Set(2*i, i, 1)
		b[2*i] = lo + 0.2 + rng.Float64()
		a.Set(2*i+1, i, -1)
		b[2*i+1] = -lo
	}
	for k := 0; k < extra; k++ {
		row := a.RowView(2*n + k)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		b[2*n+k] = 1 + rng.Float64()
	}
	return &Problem{H: h, G: g, A: a, B: b}
}

// sameBits reports whether two float slices are bit-for-bit equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSolverReuseBitIdentical drives one Solver through a sequence of
// problems whose dimension shrinks and grows, as the MPC's does when
// knobs pin and unpin between periods, with cold, warm, infeasible and
// erroring solves in between. Every result must be bit-identical to a
// fresh Solve of the same problem.
func TestSolverReuseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Solver
	var prev *Result
	aliased := 0
	for step, n := range []int{8, 6, 6, 2, 8, 8, 1, 12, 12, 3, 5, 5, 16, 2, 2} {
		p := mpcLikeProblem(rng, n)
		var x0 []float64
		switch step % 3 {
		case 0: // cold start: phase-1 from zero
		case 1: // random, usually infeasible, warm start
			x0 = make([]float64, n)
			for i := range x0 {
				x0[i] = rng.NormFloat64()
			}
		case 2: // the previous result, aliasing the workspace, as the start
			if prev == nil || len(prev.X) != n {
				t.Fatalf("step %d: no previous result of size %d", step, n)
			}
			x0 = prev.X
			aliased++
		}
		want, wantErr := Solve(p, append([]float64(nil), x0...))
		got, err := s.Solve(p, x0)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("step %d (n=%d): reused err %v, fresh err %v", step, n, err, wantErr)
		}
		if err != nil {
			prev = nil
			continue
		}
		if !sameBits(got.X, want.X) || !sameBits(got.Lambda, want.Lambda) ||
			math.Float64bits(got.Obj) != math.Float64bits(want.Obj) ||
			got.Iterations != want.Iterations || !slices.Equal(got.Active, want.Active) {
			t.Fatalf("step %d (n=%d): reused solver differs from fresh:\n got %+v\nwant %+v", step, n, got, want)
		}
		prev = got

		// An infeasible problem between solves must leave nothing behind.
		if step%3 == 0 {
			bad := &Problem{H: mat.Diag([]float64{2}), G: []float64{0},
				A: mat.FromRows([][]float64{{1}, {-1}}), B: []float64{0, -1}}
			if _, err := s.Solve(bad, nil); err == nil {
				t.Fatal("expected infeasibility error")
			}
			prev = nil
		}
	}
	if aliased != 5 {
		t.Fatalf("%d aliased warm starts ran, want 5", aliased)
	}
}

// TestSolverReuseAllocationFree: once a Solver has seen the largest
// problem, solving same-size or smaller ones allocates nothing.
func TestSolverReuseAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	big, small := mpcLikeProblem(rng, 8), mpcLikeProblem(rng, 5)
	x0big, x0small := make([]float64, 8), make([]float64, 5)
	var s Solver
	if _, err := s.Solve(big, x0big); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.Solve(small, x0small); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(big, x0big); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("reused solver allocates %.0f objects per pair of solves, want 0", allocs)
	}
}
