package mpc

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// loop is a seeded closed loop around one controller: each step is
// one Compute call, rendered bit for bit with its diagnostics.
type loop struct {
	c   *Controller
	rng *rand.Rand
	f   []float64
	p   float64
}

func newLoop(c *Controller, seed int64) *loop {
	l := &loop{c: c, rng: rand.New(rand.NewSource(seed)), f: make([]float64, c.NumKnobs()), p: 900}
	for i := range l.f {
		l.f[i] = c.fmin[i] + l.rng.Float64()*c.scale[i]
	}
	return l
}

func (l *loop) step() (string, error) {
	c, rng, n := l.c, l.rng, l.c.NumKnobs()
	tp := make([]float64, n)
	lower := make([]float64, n)
	for i := range tp {
		tp[i] = rng.Float64()
		lower[i] = c.fmin[i]
		switch rng.Intn(6) {
		case 0: // an SLO floor somewhere in the range
			lower[i] += rng.Float64() * c.scale[i]
		case 1: // a floor at the ceiling pins the knob: the QP shrinks
			lower[i] = c.fmax[i]
		}
	}
	d, diag, err := c.Compute(l.p, 950+60*rng.NormFloat64(), l.f, tp, lower)
	if err != nil {
		return "", err
	}
	for i := range l.f {
		l.f[i] += d[i]
		l.p += c.gains[i] * d[i] * (0.9 + 0.2*rng.Float64())
	}
	bits := func(v []float64) []uint64 {
		u := make([]uint64, len(v))
		for i, x := range v {
			u[i] = math.Float64bits(x)
		}
		return u
	}
	return fmt.Sprint(bits(d), diag.SolverIterations, bits(diag.PredictedStepW),
		math.Float64bits(diag.PredictedEndPowerW), diag.ActiveLower, diag.ActiveUpper, diag.PinnedKnobs), nil
}

// run steps a loop for the given number of periods.
func (l *loop) run(periods int) ([]string, error) {
	out := make([]string, 0, periods)
	for k := 0; k < periods; k++ {
		s, err := l.step()
		if err != nil {
			return out, fmt.Errorf("period %d: %w", k, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// workspaceControllers returns two controllers of different shapes (a
// 1+3 testbed server at M=2 and a 1+8 server at M=3), both with
// detailed diagnostics, so consecutive Compute calls on a shared
// workspace change every buffer's size.
func workspaceControllers(t *testing.T) (*Controller, *Controller) {
	small := testController(t, Config{})
	small.SetDetailedDiagnostics(true)
	n := 9
	gains, fmin, fmax := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range gains {
		gains[i], fmin[i], fmax[i] = 0.16+0.01*float64(i), 435, 1350
	}
	gains[0], fmin[0], fmax[0] = 55, 1.0, 2.4
	big, err := New(gains, fmin, fmax, Config{M: 3})
	if err != nil {
		t.Fatal(err)
	}
	big.SetDetailedDiagnostics(true)
	return small, big
}

// TestPooledWorkspaceIsolation: Compute draws its buffers from a shared
// pool, so its outputs must not depend on which controllers ran before
// or beside it. Two controllers run alone, then interleaved period by
// period, then concurrently (run under -race in CI), and every output
// must be bit-identical to the solo run.
func TestPooledWorkspaceIsolation(t *testing.T) {
	const periods = 60
	soloSmall, soloBig := workspaceControllers(t)
	wantSmall, err := newLoop(soloSmall, 1).run(periods)
	if err != nil {
		t.Fatal(err)
	}
	wantBig, err := newLoop(soloBig, 2).run(periods)
	if err != nil {
		t.Fatal(err)
	}

	// Interleaved on one goroutine, so consecutive calls draw the same
	// pooled workspace at alternating sizes.
	small, big := workspaceControllers(t)
	ls, lb := newLoop(small, 1), newLoop(big, 2)
	gotSmall, gotBig := make([]string, periods), make([]string, periods)
	for k := 0; k < periods; k++ {
		if gotBig[k], err = lb.step(); err != nil {
			t.Fatal(err)
		}
		if gotSmall[k], err = ls.step(); err != nil {
			t.Fatal(err)
		}
	}
	compareTraces(t, "interleaved small", gotSmall, wantSmall)
	compareTraces(t, "interleaved big", gotBig, wantBig)

	// Concurrent: copies of both controllers stepping at once.
	var wg sync.WaitGroup
	results := make([][]string, 8)
	errs := make([]error, len(results))
	for g := range results {
		s, b := workspaceControllers(t)
		l := newLoop(s, 1)
		if g%2 == 1 {
			l = newLoop(b, 2)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = l.run(periods)
		}(g)
	}
	wg.Wait()
	for g, got := range results {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		want := wantSmall
		if g%2 == 1 {
			want = wantBig
		}
		compareTraces(t, fmt.Sprintf("concurrent goroutine %d", g), got, want)
	}
}

func compareTraces(t *testing.T, name string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d periods, want %d", name, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s: period %d differs from the solo run:\n got %s\nwant %s", name, k, got[k], want[k])
		}
	}
}
