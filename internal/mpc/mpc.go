// Package mpc implements CapGPU's MIMO model-predictive power controller
// (§4.3). At each control period it minimizes the finite-horizon cost of
// Eq. (9),
//
//	V(k) = Σ_{i=1..P} ‖p(k+i|k) − P_s‖²_Q + Σ_{i=0..M-1} ‖d(k+i|k) + f(k+i|k) − f_min‖²_R(i),
//
// over the next M frequency moves, subject to the Eq. (10) constraints:
// per-device frequency bounds and the SLO-derived GPU frequency lower
// bounds obtained by inverting the latency law (10b,c). Predictions use
// the incremental power model p(k+i) = p(k) + A·ΔF (Eq. 7).
//
// The controller works internally in normalized coordinates
// x_n = (f_n − f_min,n)/(f_max,n − f_min,n) ∈ [0, 1] so CPU GHz and GPU
// MHz knobs condition the problem equally. The condensed problem is a
// strictly convex QP solved exactly by internal/qp's active-set method;
// an SLSQP path (internal/slsqp) is retained for parity with the paper's
// named solver and for the A4 ablation.
//
// The weight-assignment algorithm (the paper's §4.3 "normalize and
// invert their throughput") enters through R(i): each device's control
// penalty is R_n = R0/(ŵ_n + ε) where ŵ_n is its throughput normalized
// by its own maximum. Busy devices get small penalties for running above
// f_min, so the optimizer grants them the frequency headroom.
package mpc

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mat"
	"repro/internal/qp"
	"repro/internal/slsqp"
)

// Config tunes the controller. Zero values select the paper's settings.
type Config struct {
	P  int     // prediction horizon (paper: 8)
	M  int     // control horizon (paper: 2)
	Q  float64 // tracking weight (default 1)
	R0 float64 // base control penalty (default 2)
	// Eps regularizes the throughput inversion in the weight assignment
	// (default 0.1).
	Eps float64
	// UseSLSQP selects the sequential least-squares solver instead of
	// the active-set QP (ablation A4).
	UseSLSQP bool
	// UniformWeights disables the weight-assignment algorithm, using
	// R_n = R0 for every device (ablation A1).
	UniformWeights bool
	// DeadbandW suppresses tracking corrections when the power error is
	// within this band (Watts), so the controller does not chase power
	// meter noise; the weight-driven reallocation still runs. Default 5.
	// Set negative to disable entirely.
	DeadbandW float64
	// ColdStart disables warm-starting the active-set solver from the
	// previous period's (shifted) solution. Warm starting is the
	// practical core of the multi-parametric overhead reduction §4.3
	// cites: in steady state the active set rarely changes, so the
	// solver terminates in one or two iterations. (A full explicit-MPC
	// region cache is not applicable here because the weight assignment
	// makes the Hessian time-varying.)
	ColdStart bool
}

func (c *Config) defaults() Config {
	out := *c
	if out.P == 0 {
		out.P = 8
	}
	if out.M == 0 {
		out.M = 2
	}
	if out.Q == 0 {
		out.Q = 1
	}
	if out.R0 == 0 {
		out.R0 = 2
	}
	if out.Eps == 0 {
		out.Eps = 0.1
	}
	if out.DeadbandW == 0 {
		out.DeadbandW = 5
	}
	if out.DeadbandW < 0 {
		out.DeadbandW = 0
	}
	return out
}

// Controller is the CapGPU MPC.
type Controller struct {
	cfg    Config
	gains  []float64 // identified plant gains, natural units (W/GHz, W/MHz)
	fmin   []float64
	fmax   []float64
	scale  []float64 // fmax - fmin
	gtil   []float64 // gains in W per normalized unit
	lastD  []float64 // previous period's solution (normalized), for warm starts
	detail bool      // populate the Diagnostics detail fields (flight recorder)
}

// workspace holds one Compute call's transient buffers: the normalized
// operating point and bounds, the free-knob slices, the condensed QP
// (H, g, A, b), the warm start and the active-set solver. Nothing in a
// workspace survives a Compute call — every buffer is reinitialized
// before use — so which workspace a call draws never changes a result.
type workspace struct {
	x, lo, d0full    []float64
	free             []int
	xf, lof, rf, gtf []float64
	h, a             mat.Mat
	g, b             []float64
	x0               []float64
	solver           qp.Solver
}

// workspaces is the package-level pool Compute draws from, rather than
// a workspace per Controller: a fleet's controllers compute one at a
// time per worker, so a handful of workspaces serve thousands of
// controllers, where per-controller buffers would grow the live heap
// with the fleet. It is a mutex-guarded free list rather than a
// sync.Pool because sync.Pool drops a random quarter of its Puts under
// the race detector, which would make the allocation-count tests
// nondeterministic in race builds. At most maxIdleWorkspaces are kept;
// the pool never holds more than the peak number of concurrent calls.
var workspaces struct {
	mu   sync.Mutex
	idle []*workspace
}

const maxIdleWorkspaces = 64

func getWorkspace() *workspace {
	workspaces.mu.Lock()
	defer workspaces.mu.Unlock()
	n := len(workspaces.idle)
	if n == 0 {
		return new(workspace)
	}
	ws := workspaces.idle[n-1]
	workspaces.idle[n-1] = nil
	workspaces.idle = workspaces.idle[:n-1]
	return ws
}

func putWorkspace(ws *workspace) {
	workspaces.mu.Lock()
	defer workspaces.mu.Unlock()
	if len(workspaces.idle) < maxIdleWorkspaces {
		workspaces.idle = append(workspaces.idle, ws)
	}
}

// Diagnostics reports solver internals for one control period.
//
// The fields below Clamped are the flight recorder's view of the
// optimum and are populated only when SetDetailedDiagnostics(true) has
// been called: the default path leaves them nil so an uninstrumented
// control loop allocates nothing extra.
type Diagnostics struct {
	PredictedEndPowerW float64 // model-predicted power after the horizon
	SolverIterations   int
	Solver             string
	Weights            []float64 // the R_n actually used
	Clamped            bool      // true if SLO bounds forced repair of the start point

	// BiasW is the deadband-adjusted tracking error fed to the QP, after
	// pinned-knob power effects were folded in.
	BiasW float64
	// DeadbandHold is true when |measured − setpoint| sat inside the
	// deadband: no tracking correction this period, only the
	// weight-driven reallocation term acts.
	DeadbandHold bool
	// PredictedStepW is the model-predicted power after each horizon
	// step 1..P, using all M planned moves (not just the applied first
	// one) — the full-horizon trajectory the optimizer committed to.
	PredictedStepW []float64
	// ActiveLower / ActiveUpper report, per knob, whether the first
	// move lands the knob on its effective lower bound (hardware f_min
	// or SLO floor) or its ceiling — the active box constraints at the
	// optimum.
	ActiveLower []bool
	ActiveUpper []bool
	// PinnedKnobs marks knobs eliminated analytically because their SLO
	// floor sat at (or numerically at) the ceiling.
	PinnedKnobs []bool
	// LowerBoundsNorm is the effective normalized lower bound per knob
	// (0 = hardware minimum; >0 = an SLO floor raised it).
	LowerBoundsNorm []float64
}

// SetDetailedDiagnostics toggles the Diagnostics detail fields
// (constraint activity, horizon trajectory). Off by default: the extra
// slices cost allocations per period, so only the flight recorder turns
// them on.
func (c *Controller) SetDetailedDiagnostics(on bool) { c.detail = on }

// New builds a controller from the identified gains and the per-knob
// frequency ranges (knob 0 is the CPU). Gains must be positive: a knob
// whose frequency increase lowered power would indicate a broken
// identification run.
func New(gains, fmin, fmax []float64, cfg Config) (*Controller, error) {
	n := len(gains)
	if n == 0 {
		return nil, fmt.Errorf("mpc: no knobs")
	}
	if len(fmin) != n || len(fmax) != n {
		return nil, fmt.Errorf("mpc: bounds lengths (%d, %d) vs %d gains", len(fmin), len(fmax), n)
	}
	c := cfg.defaults()
	if c.P < c.M {
		return nil, fmt.Errorf("mpc: prediction horizon %d shorter than control horizon %d", c.P, c.M)
	}
	if c.M < 1 {
		return nil, fmt.Errorf("mpc: control horizon %d must be >= 1", c.M)
	}
	ctrl := &Controller{
		cfg:   c,
		gains: append([]float64(nil), gains...),
		fmin:  append([]float64(nil), fmin...),
		fmax:  append([]float64(nil), fmax...),
		scale: make([]float64, n),
		gtil:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		if fmax[i] <= fmin[i] {
			return nil, fmt.Errorf("mpc: knob %d range [%g, %g] invalid", i, fmin[i], fmax[i])
		}
		if gains[i] <= 0 {
			return nil, fmt.Errorf("mpc: knob %d gain %g must be positive", i, gains[i])
		}
		ctrl.scale[i] = fmax[i] - fmin[i]
		ctrl.gtil[i] = gains[i] * ctrl.scale[i]
	}
	return ctrl, nil
}

// NumKnobs returns the controlled knob count.
func (c *Controller) NumKnobs() int { return len(c.gains) }

// SetGains replaces the plant gains at run time — the hook used by
// adaptive (RLS-updated) controllers when the identified model drifts
// with the workload (§4.4's scenario). Gains must stay positive.
func (c *Controller) SetGains(gains []float64) error {
	if len(gains) != len(c.gains) {
		return fmt.Errorf("mpc: %d gains for %d knobs", len(gains), len(c.gains))
	}
	for i, g := range gains {
		if g <= 0 {
			return fmt.Errorf("mpc: knob %d gain %g must be positive", i, g)
		}
	}
	copy(c.gains, gains)
	for i := range c.gains {
		c.gtil[i] = c.gains[i] * c.scale[i]
	}
	return nil
}

// Gains returns a copy of the current plant gains.
func (c *Controller) Gains() []float64 {
	return append([]float64(nil), c.gains...)
}

// Config returns the effective configuration.
func (c *Controller) Config() Config { return c.cfg }

// penaltyWeights implements the weight assignment: normalized, inverted
// throughput. weights may be nil (uniform).
func (c *Controller) penaltyWeights(throughput []float64) []float64 {
	n := len(c.gains)
	r := make([]float64, n)
	for i := 0; i < n; i++ {
		if c.cfg.UniformWeights || throughput == nil {
			r[i] = c.cfg.R0
			continue
		}
		w := throughput[i]
		if w < 0 {
			w = 0
		}
		if w > 1 {
			w = 1
		}
		r[i] = c.cfg.R0 / (w + c.cfg.Eps)
	}
	return r
}

// Compute returns the frequency increments d(k) (natural units, knob 0
// first) for one control period.
//
//	measuredW: average power over the previous period (the feedback).
//	setpointW: the power cap P_s.
//	knobs:     currently applied frequencies.
//	throughput: per-knob normalized throughput in [0,1] for the weight
//	           assignment (nil => uniform weights).
//	lower:     per-knob effective minimum frequencies; for GPUs these are
//	           the SLO-derived bounds from Eq. (10b,c) (nil => hardware
//	           minimums).
func (c *Controller) Compute(measuredW, setpointW float64, knobs, throughput, lower []float64) ([]float64, *Diagnostics, error) {
	n := len(c.gains)
	if len(knobs) != n {
		return nil, nil, fmt.Errorf("mpc: %d knobs for %d knobs", len(knobs), n)
	}
	if throughput != nil && len(throughput) != n {
		return nil, nil, fmt.Errorf("mpc: %d throughputs for %d knobs", len(throughput), n)
	}
	if lower != nil && len(lower) != n {
		return nil, nil, fmt.Errorf("mpc: %d lower bounds for %d knobs", len(lower), n)
	}

	ws := getWorkspace()
	defer putWorkspace(ws)

	// Normalized current position and lower bounds.
	ws.x = mat.Reuse(ws.x, n)
	ws.lo = mat.Reuse(ws.lo, n)
	x, lo := ws.x, ws.lo
	clamped := false
	for i := 0; i < n; i++ {
		x[i] = (knobs[i] - c.fmin[i]) / c.scale[i]
		if x[i] < 0 {
			x[i] = 0
		}
		if x[i] > 1 {
			x[i] = 1
		}
		lo[i] = 0
		if lower != nil {
			l := (lower[i] - c.fmin[i]) / c.scale[i]
			if l > 1 {
				l = 1
				clamped = true
			}
			if l > 0 {
				lo[i] = l
			}
		}
		if x[i] < lo[i] {
			clamped = true
		}
	}

	bias := measuredW - setpointW
	deadbandHold := false
	if math.Abs(bias) <= c.cfg.DeadbandW {
		bias = 0
		deadbandHold = true
	}
	r := c.penaltyWeights(throughput)

	// Pinned knobs — an SLO floor at (or numerically at) the ceiling —
	// have exactly one feasible trajectory: jump to the ceiling and
	// stay. Handling them inside the QP creates a degenerate equality
	// face that active-set methods dislike, so they are eliminated
	// analytically: their move is fixed and its power effect folded into
	// the tracking bias; the QP runs over the free knobs only.
	const pinTol = 1e-9
	ws.free = mat.Reuse(ws.free, n)
	free := ws.free[:0]
	ws.d0full = mat.Reuse(ws.d0full, n)
	d0full := ws.d0full
	var pinned []bool
	if c.detail {
		pinned = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		if lo[i] >= 1-pinTol {
			d0full[i] = 1 - x[i]
			bias += c.gtil[i] * (1 - x[i])
			if pinned != nil {
				pinned[i] = true
			}
		} else {
			free = append(free, i)
		}
	}
	diag := &Diagnostics{Weights: r, Clamped: clamped}
	var fullSol []float64 // all M move blocks over the free knobs

	if len(free) > 0 {
		nf := len(free)
		ws.xf = mat.Reuse(ws.xf, nf)
		ws.lof = mat.Reuse(ws.lof, nf)
		ws.rf = mat.Reuse(ws.rf, nf)
		ws.gtf = mat.Reuse(ws.gtf, nf)
		xf, lof, rf, gtf := ws.xf, ws.lof, ws.rf, ws.gtf
		for k, i := range free {
			xf[k], lof[k], rf[k], gtf[k] = x[i], lo[i], r[i], c.gtil[i]
		}
		c.condense(ws, bias, xf, rf, gtf)
		c.constraints(ws, xf, lof)

		var d0 []float64
		if c.cfg.UseSLSQP {
			sol, err := c.solveSLSQP(&ws.h, ws.g, &ws.a, ws.b)
			if err != nil {
				return nil, nil, err
			}
			d0 = sol.X[:nf]
			fullSol = sol.X
			diag.SolverIterations = sol.Iterations
			diag.Solver = "slsqp"
		} else {
			sol, err := ws.solver.Solve(&qp.Problem{H: &ws.h, G: ws.g, A: &ws.a, B: ws.b}, c.warmStart(ws, nf))
			if err != nil {
				return nil, nil, err
			}
			c.lastD = append(c.lastD[:0], sol.X...)
			d0 = sol.X[:nf]
			fullSol = sol.X
			diag.SolverIterations = sol.Iterations
			diag.Solver = "active-set"
		}
		for k, i := range free {
			d0full[i] = d0[k]
		}
	}

	// Convert the first move back to natural units. (Receding horizon:
	// later moves are discarded and recomputed next period, §4.3.)
	out := make([]float64, n)
	predicted := measuredW
	for i := 0; i < n; i++ {
		out[i] = d0full[i] * c.scale[i]
		predicted += c.gtil[i] * d0full[i]
	}
	diag.PredictedEndPowerW = predicted
	if c.detail {
		diag.BiasW = bias
		diag.DeadbandHold = deadbandHold
		diag.PinnedKnobs = pinned
		diag.LowerBoundsNorm = append([]float64(nil), lo...)
		diag.ActiveLower = make([]bool, n)
		diag.ActiveUpper = make([]bool, n)
		const boundTol = 1e-6
		for i := 0; i < n; i++ {
			pos := x[i] + d0full[i]
			diag.ActiveLower[i] = pos <= lo[i]+boundTol
			diag.ActiveUpper[i] = pos >= 1-boundTol
		}
		diag.PredictedStepW = c.predictHorizon(measuredW, d0full, free, fullSol)
	}
	return out, diag, nil
}

// predictHorizon rolls the incremental model (Eq. 7) over the full
// prediction horizon using all M planned moves: step j's power is
// measured + Σ_{b < min(j,M)} Σ_p gtil_p · d_{b,p}. Pinned knobs move
// once (their whole deficit) and then hold.
func (c *Controller) predictHorizon(measuredW float64, d0full []float64, free []int, fullSol []float64) []float64 {
	out := make([]float64, c.cfg.P)
	nf := len(free)
	pred := measuredW
	for j := 1; j <= c.cfg.P; j++ {
		if j == 1 {
			for i, d := range d0full {
				pred += c.gtil[i] * d
			}
		} else if j <= c.cfg.M && nf > 0 && len(fullSol) >= j*nf {
			for k, i := range free {
				pred += c.gtil[i] * fullSol[(j-1)*nf+k]
			}
		}
		out[j-1] = pred
	}
	return out
}

// warmStart builds the solver's starting point: the previous period's
// solution shifted by one move block (the receding-horizon tail), zero
// on a cold start. Infeasible starts are repaired by the solver's
// phase-1, so stale bounds are harmless.
func (c *Controller) warmStart(ws *workspace, n int) []float64 {
	dim := c.cfg.M * n
	ws.x0 = mat.Reuse(ws.x0, dim)
	x0 := ws.x0
	// A dimension change (knobs pinned/unpinned between periods)
	// invalidates the stored solution; fall back to a cold start.
	if c.cfg.ColdStart || len(c.lastD) != dim {
		return x0
	}
	copy(x0, c.lastD[n:]) // drop the applied move, shift the rest forward
	return x0
}

// condense builds the QP matrices ws.h and ws.g for decision vector
// D = [d(k); d(k+1|k); ...; d(k+M-1|k)] (normalized units).
func (c *Controller) condense(ws *workspace, bias float64, x, r, gtil []float64) {
	n := len(gtil)
	dim := c.cfg.M * n
	ws.h.Reset(dim, dim)
	ws.g = mat.Reuse(ws.g, dim)
	h, g := ws.h.Data, ws.g

	// Tracking term: for each prediction step j, the predicted error is
	// bias + Σ_{i < min(j,M)} gtil·d_i.
	for j := 1; j <= c.cfg.P; j++ {
		moves := j
		if moves > c.cfg.M {
			moves = c.cfg.M
		}
		// S_j has gtil in each included move block.
		for bi := 0; bi < moves; bi++ {
			for p := 0; p < n; p++ {
				g[bi*n+p] += 2 * c.cfg.Q * bias * gtil[p]
				for bj := 0; bj < moves; bj++ {
					for q := 0; q < n; q++ {
						h[(bi*n+p)*dim+bj*n+q] += 2 * c.cfg.Q * gtil[p] * gtil[q]
					}
				}
			}
		}
	}
	// Control penalty: for each move step i, (x + c_{i+1})ᵀ R (x + c_{i+1})
	// with c_{i+1} = Σ_{b<=i} d_b (the "distance above f_min" of Eq. 9's
	// second term, in normalized units).
	for i := 0; i < c.cfg.M; i++ {
		for bi := 0; bi <= i; bi++ {
			for p := 0; p < n; p++ {
				g[bi*n+p] += 2 * r[p] * x[p]
				for bj := 0; bj <= i; bj++ {
					h[(bi*n+p)*dim+bj*n+p] += 2 * r[p]
				}
			}
		}
	}
}

// constraints builds the inequality system ws.a, ws.b for Eq. (10a)
// plus SLO lower bounds: for every move step i and knob p,
//
//	lo_p − x_p ≤ Σ_{b<=i} d_b,p ≤ 1 − x_p.
func (c *Controller) constraints(ws *workspace, x, lo []float64) {
	n := len(x)
	dim := c.cfg.M * n
	rows := 2 * c.cfg.M * n
	ws.a.Reset(rows, dim)
	ws.b = mat.Reuse(ws.b, rows)
	a, b := ws.a.Data, ws.b
	row := 0
	for i := 0; i < c.cfg.M; i++ {
		for p := 0; p < n; p++ {
			// Upper: Σ_{b<=i} d_b,p ≤ 1 − x_p.
			for bi := 0; bi <= i; bi++ {
				a[row*dim+bi*n+p] = 1
			}
			b[row] = 1 - x[p]
			row++
			// Lower: −Σ_{b<=i} d_b,p ≤ x_p − lo_p.
			for bi := 0; bi <= i; bi++ {
				a[row*dim+bi*n+p] = -1
			}
			// When a freshly tightened SLO bound puts the current
			// operating point below lo, this right-hand side is negative:
			// the cumulative move is forced to recover the full deficit,
			// and the solver repairs the (now infeasible) zero start.
			b[row] = x[p] - lo[p]
			row++
		}
	}
}

// solveSLSQP runs the same condensed problem through the SQP solver.
func (c *Controller) solveSLSQP(h *mat.Mat, g []float64, a *mat.Mat, b []float64) (*slsqp.Result, error) {
	obj := slsqp.Objective{
		//lint:ignore hotalloc slsqp's callback API takes the objective as closures over this period's H and g: built once per solve, and only on the A4 ablation path (Config.UseSLSQP)
		Func: func(d []float64) float64 {
			hd := h.MulVec(d)
			return 0.5*mat.Dot(d, hd) + mat.Dot(g, d)
		},
		//lint:ignore hotalloc see Func above: once per solve, A4 path only
		Grad: func(d []float64) []float64 {
			grad := h.MulVec(d)
			mat.Axpy(1, g, grad)
			return grad
		},
	}
	cons := make([]slsqp.Constraint, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.RowView(i)
		bi := b[i]
		cons[i] = slsqp.Constraint{
			//lint:ignore hotalloc one closure per constraint row per solve; the rows must be captured for the solver's callback API
			Func: func(d []float64) float64 { return mat.Dot(row, d) - bi },
			//lint:ignore hotalloc same per-row capture as Func
			Grad: func(d []float64) []float64 { return append([]float64(nil), row...) },
		}
	}
	res, err := slsqp.Minimize(obj, cons, nil, nil, make([]float64, h.Rows), slsqp.Params{MaxIter: 150})
	if err != nil {
		return nil, fmt.Errorf("mpc: slsqp: %w", err)
	}
	return res, nil
}

// FeedbackGains returns the unconstrained linear feedback law of the
// controller at the given operating point and weights: the first move is
//
//	d(k) = −K·(p(k) − P_s) − (affine terms in x),
//
// and K (natural units per Watt) is what §4.4's pole analysis needs.
// It is computed by differencing the unconstrained QP solution in the
// power error.
func (c *Controller) FeedbackGains(throughput []float64) ([]float64, error) {
	n := len(c.gains)
	x := make([]float64, n) // evaluate at f_min; K is independent of x
	r := c.penaltyWeights(throughput)

	solve := func(bias float64) ([]float64, error) {
		ws := new(workspace)
		c.condense(ws, bias, x, r, c.gtil)
		sol, err := mat.Solve(&ws.h, mat.ScaleVec(-1, ws.g))
		if err != nil {
			return nil, fmt.Errorf("mpc: feedback gain solve: %w", err)
		}
		return sol[:n], nil
	}
	d0, err := solve(0)
	if err != nil {
		return nil, err
	}
	d1, err := solve(1)
	if err != nil {
		return nil, err
	}
	k := make([]float64, n)
	for i := 0; i < n; i++ {
		// d = d0 − K·bias  =>  K = d0 − d1 per unit bias, then convert
		// the normalized move to natural units.
		k[i] = (d0[i] - d1[i]) * c.scale[i]
	}
	return k, nil
}

// ScalarClosedLoopPole returns the §4.4 pole 1 − Σ A′_n·K_n of the
// unconstrained loop when the true plant gains are gainScale·A.
func (c *Controller) ScalarClosedLoopPole(throughput []float64, gainScale float64) (float64, error) {
	k, err := c.FeedbackGains(throughput)
	if err != nil {
		return 0, err
	}
	s := 0.0
	for i := range k {
		s += gainScale * c.gains[i] * k[i]
	}
	return 1 - s, nil
}

// SLOFrequencyBound inverts the latency law (10b,c): the minimum GPU
// frequency that keeps predicted latency within the SLO.
func SLOFrequencyBound(eMin, gamma, fgMax, slo float64) (float64, error) {
	if eMin <= 0 || gamma <= 0 || fgMax <= 0 {
		return 0, fmt.Errorf("mpc: invalid latency law (eMin=%g, gamma=%g, fgMax=%g)", eMin, gamma, fgMax)
	}
	if slo <= 0 {
		return fgMax, nil // degenerate SLO: pin at max
	}
	if slo <= eMin {
		return fgMax, nil // unreachable: best effort is f_max
	}
	return fgMax * math.Pow(eMin/slo, 1/gamma), nil
}
