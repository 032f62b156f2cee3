// Package provenance is the causal-tracing layer of the control plane:
// every cause that can move a node's power cap — a policy op at a
// barrier, a heartbeat-loss death, a reservation release, a drain ramp
// — mints a replay-stable span, reallocations consume the staged
// causes, and each per-node cap change becomes a child span that stays
// open until the realized power settles inside the slack. The result
// is a queryable span tree per root cause: "budget@4310 → reallocation
// r17 → node h2 cap 310→268 W → settled in 3 periods".
//
// Determinism contract: the package sits inside the capgpu-lint
// determinism scope. Span IDs are derived from content (kind, node,
// period) plus deterministic sequence counters, never from wall time
// or randomness, so a checkpoint-restored daemon re-mints the byte-
// identical trace stream. Worker-count invariance is handled by the
// two pending queues: records minted on the coordinator goroutine
// (deaths, reallocations, cap changes, settlement closes) accumulate
// separately from records minted inside telemetry's alert engine
// (whose hook fires under the hub node-state lock at positions that differ
// between sequential and buffered stepping), and EndStep flushes the
// coordinator queue first — the JSONL bytes come out identical at any
// worker count because each queue's internal order is already
// node-index order.
//
// The Tracer is not a hot-path object: the cluster coordinator holds
// it behind a locally defined interface and guards every call with one
// nil check, so runs without tracing pay nothing and the hotalloc
// analyzer's reachability walk stops at the interface boundary.
package provenance

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Span kinds. Policy ops, reallocations, and releases are point spans
// (closed at mint); deaths, cap changes, alerts, failsafe and fault
// windows stay open until their closing condition or run end.
const (
	KindPolicyOp            = "policy-op"
	KindNodeDead            = "node-dead"
	KindNodeRecovered       = "node-recovered"
	KindReservationReleased = "reservation-released"
	KindNodeReleased        = "node-released"
	KindRealloc             = "reallocation"
	KindCapChange           = "cap-change"
	KindFailSafe            = "failsafe"
	KindFault               = "fault"
	KindAlert               = "alert"
)

// Span outcomes.
const (
	OutcomeApplied    = "applied"    // point span: the mutation took effect
	OutcomeRejected   = "rejected"   // point span: the mutation was refused
	OutcomeSettled    = "settled"    // cap change: realized power inside slack
	OutcomeSuperseded = "superseded" // cap change: replaced before settling
	OutcomeRecovered  = "recovered"  // death window: the node came back
	OutcomeResolved   = "resolved"   // alert window: the rule cleared
	OutcomeExited     = "exited"     // failsafe/fault window: condition cleared
	OutcomeRunEnd     = "run-end"    // still open when the run finished
)

// Span is one node of the causal tree. Parent is the primary cause
// (tree edge); Causes lists every staged cause a reallocation
// consumed, Parent being Causes[0]. A span with Outcome "" is open.
type Span struct {
	ID     string   `json:"id"`
	Parent string   `json:"parent,omitempty"`
	Causes []string `json:"causes,omitempty"`
	Kind   string   `json:"kind"`
	Period int      `json:"period"`
	Node   string   `json:"node,omitempty"`
	Detail string   `json:"detail,omitempty"`
	FromW  float64  `json:"from_w,omitempty"`
	ToW    float64  `json:"to_w,omitempty"`

	EndPeriod int    `json:"end_period,omitempty"`
	Outcome   string `json:"outcome,omitempty"`
	// SettlePeriods is how many control periods a cap change needed
	// until the realized power first held inside the slack (1 = settled
	// in the period the cap was applied).
	SettlePeriods int `json:"settle_periods,omitempty"`
}

// Open reports whether the span has not been closed yet.
func (s *Span) Open() bool { return s.Outcome == "" }

// traceLine is one JSONL record: a span open (with the span's fields
// at mint time) or a close that back-fills the outcome.
type traceLine struct {
	Rec           string   `json:"rec"` // "span" | "close"
	ID            string   `json:"id"`
	Parent        string   `json:"parent,omitempty"`
	Causes        []string `json:"causes,omitempty"`
	Kind          string   `json:"kind,omitempty"`
	Period        int      `json:"period,omitempty"`
	Node          string   `json:"node,omitempty"`
	Detail        string   `json:"detail,omitempty"`
	FromW         float64  `json:"from_w,omitempty"`
	ToW           float64  `json:"to_w,omitempty"`
	EndPeriod     int      `json:"end_period,omitempty"`
	Outcome       string   `json:"outcome,omitempty"`
	SettlePeriods int      `json:"settle_periods,omitempty"`
}

// Config tunes a Tracer. The zero value keeps everything in memory
// with the documented defaults.
type Config struct {
	// JSONL, when set, receives every span open and close as one JSON
	// line, flushed at period barriers. Write errors are sticky and
	// reported by Err.
	JSONL io.Writer
	// SettleSlackFrac is the fraction above the new cap within which
	// realized power counts as settled (default 0.02).
	SettleSlackFrac float64
	// EpsilonW is the smallest |Δcap| that mints a cap-change span
	// (default 0.5 W); smaller moves are allocator jitter, not causes.
	EpsilonW float64
}

// DefaultSettleSlackFrac and DefaultEpsilonW are the Config defaults.
const (
	DefaultSettleSlackFrac = 0.02
	DefaultEpsilonW        = 0.5
)

// capState tracks one node's open cap-change span toward settlement.
type capState struct {
	span    *Span
	targetW float64
	startK  int
}

// nodeObs tracks one node's open failsafe/fault windows.
type nodeObs struct {
	failSafe *Span
	fault    *Span
	dead     *Span
}

// Tracer mints and closes spans. One goroutine (the coordinator's)
// drives every method except OnAlertEvent, which the telemetry hub's
// alert engine calls under its node-state lock; the mutex makes the two
// safe together and lets HTTP handlers read span trees mid-run.
type Tracer struct {
	mu sync.Mutex

	jsonl io.Writer
	jerr  error

	slackFrac float64
	epsilonW  float64

	spans map[string]*Span
	order []string

	staged     []string          // cause IDs awaiting the next reallocation
	kills      map[string]string // node → kill-op span (parents the death)
	revives    map[string]string // node → revive-op span (parents the recovery)
	nodes      map[string]*nodeObs
	caps       map[string]*capState
	reallocSeq int
	reallocID  string // current barrier's reallocation span

	// pendCoord holds lines minted on the coordinator goroutine;
	// pendAlert holds lines minted by the telemetry alert hook. EndStep
	// flushes coordinator lines first so the stream is byte-identical
	// whether alerts fired during the fan-out (Workers=1) or at the
	// merge barrier (Workers>1) — see the package comment.
	pendCoord [][]byte
	pendAlert [][]byte
}

// New builds a Tracer.
func New(cfg Config) *Tracer {
	if cfg.SettleSlackFrac <= 0 {
		cfg.SettleSlackFrac = DefaultSettleSlackFrac
	}
	if cfg.EpsilonW <= 0 {
		cfg.EpsilonW = DefaultEpsilonW
	}
	return &Tracer{
		jsonl:     cfg.JSONL,
		slackFrac: cfg.SettleSlackFrac,
		epsilonW:  cfg.EpsilonW,
		spans:     map[string]*Span{},
		kills:     map[string]string{},
		revives:   map[string]string{},
		nodes:     map[string]*nodeObs{},
		caps:      map[string]*capState{},
	}
}

// EpsilonW returns the cap-change threshold the tracer mints at — the
// same value verification must use to diff flight setpoints.
func (t *Tracer) EpsilonW() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epsilonW
}

// Err returns the first JSONL write error, if any.
func (t *Tracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jerr
}

// uniqueID returns id, or id with a "#n" suffix when a span by that
// name already exists (two joins at one barrier, say). The counter is
// a pure function of the existing span set, so replay re-derives it.
func (t *Tracer) uniqueID(id string) string {
	if _, taken := t.spans[id]; !taken {
		return id
	}
	for n := 2; ; n++ {
		c := id + "#" + strconv.Itoa(n)
		if _, taken := t.spans[c]; !taken {
			return c
		}
	}
}

// open registers a span and queues its JSONL line on the given queue.
func (t *Tracer) open(s *Span, alertSide bool) {
	s.ID = t.uniqueID(s.ID)
	t.spans[s.ID] = s
	t.order = append(t.order, s.ID)
	t.queue(traceLine{
		Rec: "span", ID: s.ID, Parent: s.Parent, Causes: s.Causes,
		Kind: s.Kind, Period: s.Period, Node: s.Node, Detail: s.Detail,
		FromW: s.FromW, ToW: s.ToW, EndPeriod: s.EndPeriod, Outcome: s.Outcome,
	}, alertSide)
}

// close finalizes a span and queues the close line.
func (t *Tracer) close(s *Span, endPeriod int, outcome string, settle int, alertSide bool) {
	if s == nil || !s.Open() {
		return
	}
	s.EndPeriod = endPeriod
	s.Outcome = outcome
	s.SettlePeriods = settle
	t.queue(traceLine{
		Rec: "close", ID: s.ID, EndPeriod: endPeriod, Outcome: outcome, SettlePeriods: settle,
	}, alertSide)
}

// queue marshals one line into the chosen pending queue. Marshaling at
// mint time snapshots the span before later closes mutate it.
func (t *Tracer) queue(l traceLine, alertSide bool) {
	if t.jsonl == nil || t.jerr != nil {
		return
	}
	b, err := json.Marshal(l)
	if err != nil {
		t.jerr = err
		return
	}
	b = append(b, '\n')
	if alertSide {
		t.pendAlert = append(t.pendAlert, b)
	} else {
		t.pendCoord = append(t.pendCoord, b)
	}
}

// BeginPolicyOp mints the span for one control-plane mutation at
// barrier period k and returns its ID; EndPolicyOp closes it once the
// mutation resolved. The two-phase shape lets the daemon stamp the
// op's own telemetry (node-join, drain-start) with the cause while
// the op is still being applied. The caller stages the ID (Stage) or
// registers it (RegisterKill/RegisterRevive) according to the op's
// effect; rejected ops are recorded for the audit trail but cause
// nothing.
func (t *Tracer) BeginPolicyOp(kind string, k int, node, detail string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{
		ID: "op:" + kind + "@" + strconv.Itoa(k), Kind: KindPolicyOp,
		Period: k, Node: node, Detail: detail,
	}
	t.open(s, false)
	return s.ID
}

// EndPolicyOp closes a policy-op span with the applied/rejected
// outcome.
func (t *Tracer) EndPolicyOp(id string, k int, applied bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	outcome := OutcomeApplied
	if !applied {
		outcome = OutcomeRejected
	}
	t.close(t.spans[id], k, outcome, 0, false)
}

// Stage queues a cause for the next reallocation to consume.
func (t *Tracer) Stage(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id != "" {
		t.staged = append(t.staged, id)
	}
}

// RegisterKill links a kill op to the death span the heartbeat roll
// call will mint once the node misses enough beats.
func (t *Tracer) RegisterKill(node, opID string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.kills[node] = opID
}

// RegisterRevive links a revive op to the recovery span the roll call
// will mint when the node's heartbeat returns.
func (t *Tracer) RegisterRevive(node, opID string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.revives[node] = opID
}

// NodeReleased mints the point span for a drained member leaving the
// rack, parented to the drain op that started the ramp, and returns
// its ID for the caller to stage.
func (t *Tracer) NodeReleased(node string, k int, parent string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{
		ID: "released:" + node + "@" + strconv.Itoa(k), Parent: parent,
		Kind: KindNodeReleased, Period: k, Node: node, EndPeriod: k, Outcome: OutcomeApplied,
	}
	t.open(s, false)
	return s.ID
}

// obsFor returns (building if needed) node's observation state.
func (t *Tracer) obsFor(node string) *nodeObs {
	o := t.nodes[node]
	if o == nil {
		o = &nodeObs{}
		t.nodes[node] = o
	}
	return o
}

// NodeDead opens a death window when the roll call declares a node
// dead, parented to the kill op when one is registered, stages it as a
// reallocation cause, and returns its ID.
func (t *Tracer) NodeDead(node string, k, missed int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{
		ID: "death:" + node + "@" + strconv.Itoa(k), Parent: t.kills[node],
		Kind: KindNodeDead, Period: k, Node: node,
		Detail: "missed=" + strconv.Itoa(missed),
	}
	delete(t.kills, node)
	t.open(s, false)
	t.obsFor(node).dead = s
	t.staged = append(t.staged, s.ID)
	return s.ID
}

// NodeRecovered closes the node's death window, opens the recovery
// point span (parented to the revive op when one is registered),
// stages it, and returns its ID.
func (t *Tracer) NodeRecovered(node string, k int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	o := t.obsFor(node)
	if o.dead != nil {
		t.close(o.dead, k, OutcomeRecovered, 0, false)
		o.dead = nil
	}
	s := &Span{
		ID: "recover:" + node + "@" + strconv.Itoa(k), Parent: t.revives[node],
		Kind: KindNodeRecovered, Period: k, Node: node, EndPeriod: k, Outcome: OutcomeApplied,
	}
	delete(t.revives, node)
	t.open(s, false)
	t.staged = append(t.staged, s.ID)
	return s.ID
}

// ReservationReleased marks a dead node's budget reservation lapsing,
// parented to the death window it belongs to, stages it, and returns
// its ID.
func (t *Tracer) ReservationReleased(node string, k int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := ""
	if o := t.nodes[node]; o != nil && o.dead != nil {
		parent = o.dead.ID
	}
	s := &Span{
		ID: "resv:" + node + "@" + strconv.Itoa(k), Parent: parent,
		Kind: KindReservationReleased, Period: k, Node: node, EndPeriod: k, Outcome: OutcomeApplied,
	}
	t.open(s, false)
	t.staged = append(t.staged, s.ID)
	return s.ID
}

// BeginRealloc mints this barrier's reallocation span, consuming every
// staged cause: the first staged cause becomes the tree parent, the
// full list rides in Causes, and a reallocation with no staged causes
// is its own root — the periodic/demand-driven class. Returns the span
// ID for stamping the reallocation telemetry event.
func (t *Tracer) BeginRealloc(k int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reallocSeq++
	s := &Span{
		ID:     "r" + strconv.Itoa(t.reallocSeq),
		Kind:   KindRealloc,
		Period: k, EndPeriod: k, Outcome: OutcomeApplied,
	}
	if len(t.staged) > 0 {
		s.Parent = t.staged[0]
		s.Causes = t.staged
		t.staged = nil
	} else {
		s.Detail = "periodic"
	}
	t.open(s, false)
	t.reallocID = s.ID
	return s.ID
}

// CapChange mints a cap-change span for one node under the current
// reallocation when |toW−fromW| ≥ EpsilonW, superseding the node's
// previous open cap span, and returns (id, parent) for the harness
// stamp. Below the epsilon it returns ("", "") and mints nothing.
func (t *Tracer) CapChange(node string, k int, fromW, toW float64) (id, parent string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := toW - fromW
	if d < t.epsilonW && -d < t.epsilonW {
		return "", ""
	}
	if c := t.caps[node]; c != nil {
		t.close(c.span, k, OutcomeSuperseded, 0, false)
	}
	s := &Span{
		ID: "cap:" + node + "@" + strconv.Itoa(k), Parent: t.reallocID,
		Kind: KindCapChange, Period: k, Node: node, FromW: fromW, ToW: toW,
	}
	t.open(s, false)
	t.caps[node] = &capState{span: s, targetW: toW, startK: k}
	return s.ID, s.Parent
}

// ObserveNode folds one node's realized period into the open windows:
// a cap change settles when the true power first holds inside the
// slack; failsafe and fault windows open and close on their state
// transitions. Called at the coordinator's merge barrier, in
// node-index order.
func (t *Tracer) ObserveNode(node string, k int, trueW float64, failSafe, degraded bool, faults []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.caps[node]; c != nil && trueW <= c.targetW*(1+t.slackFrac) {
		t.close(c.span, k, OutcomeSettled, k-c.startK+1, false)
		delete(t.caps, node)
	}
	o := t.obsFor(node)
	switch {
	case failSafe && o.failSafe == nil:
		s := &Span{ID: "failsafe:" + node + "@" + strconv.Itoa(k), Kind: KindFailSafe, Period: k, Node: node}
		t.open(s, false)
		o.failSafe = s
	case !failSafe && o.failSafe != nil:
		t.close(o.failSafe, k, OutcomeExited, 0, false)
		o.failSafe = nil
	}
	faulted := degraded || len(faults) > 0
	switch {
	case faulted && o.fault == nil:
		detail := "degraded"
		if len(faults) > 0 {
			detail = faults[0]
			for _, f := range faults[1:] {
				detail += "," + f
			}
		}
		s := &Span{ID: "fault:" + node + "@" + strconv.Itoa(k), Kind: KindFault, Period: k, Node: node, Detail: detail}
		t.open(s, false)
		o.fault = s
	case !faulted && o.fault != nil:
		t.close(o.fault, k, OutcomeExited, 0, false)
		o.fault = nil
	}
}

// OnAlertEvent is the telemetry alert hook: firing opens an alert
// span, resolved closes it. It runs under the hub's node-state lock at
// positions that vary with the worker count, so its lines go on the
// alert queue — flushed after the coordinator queue at each barrier.
func (t *Tracer) OnAlertEvent(rule, node string, k int, value float64, firing bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := "alert:" + rule + ":" + node
	if firing {
		s := &Span{
			ID: key + "@" + strconv.Itoa(k), Kind: KindAlert,
			Period: k, Node: node, Detail: rule, ToW: value,
		}
		t.open(s, true)
		return
	}
	// Resolve the most recent open span for this (rule, node): scan the
	// insertion order backwards.
	for i := len(t.order) - 1; i >= 0; i-- {
		s := t.spans[t.order[i]]
		if s.Kind == KindAlert && s.Node == node && s.Detail == rule && s.Open() {
			t.close(s, k, OutcomeResolved, 0, true)
			return
		}
	}
}

// EndStep flushes the barrier's pending lines: coordinator mints
// first, alert mints second.
func (t *Tracer) EndStep(int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushLocked()
}

func (t *Tracer) flushLocked() {
	if t.jsonl != nil && t.jerr == nil {
		for _, b := range t.pendCoord {
			if _, err := t.jsonl.Write(b); err != nil {
				t.jerr = err
				break
			}
		}
	}
	if t.jsonl != nil && t.jerr == nil {
		for _, b := range t.pendAlert {
			if _, err := t.jsonl.Write(b); err != nil {
				t.jerr = err
				break
			}
		}
	}
	t.pendCoord = t.pendCoord[:0]
	t.pendAlert = t.pendAlert[:0]
}

// Finish closes every window still open at the end of the run with
// the run-end outcome, flushes, and returns the sticky write error.
// Call it after the telemetry hub's Finish so alert resolutions land
// first.
func (t *Tracer) Finish(k int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Deterministic close order: spans in insertion order.
	for _, id := range t.order {
		s := t.spans[id]
		if !s.Open() {
			continue
		}
		settle := 0
		if s.Kind == KindCapChange {
			if c := t.caps[s.Node]; c != nil && c.span == s {
				delete(t.caps, s.Node)
			}
		}
		t.close(s, k, OutcomeRunEnd, settle, false)
	}
	t.flushLocked()
	return t.jerr
}

// Spans returns the spans in insertion order (shared pointers; callers
// must not mutate). For tests and in-process queries.
func (t *Tracer) Spans() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.order))
	for i, id := range t.order {
		out[i] = t.spans[id]
	}
	return out
}

// treeNode is the /trace payload shape: a span with its children.
type treeNode struct {
	Span
	Children []*treeNode `json:"children,omitempty"`
}

// SpanTreesJSON renders the span forest as indented JSON, keeping the
// spans whose [Period, EndPeriod] window overlaps [from, to] (to < 0
// means no upper bound; open spans extend to the horizon). A kept
// child keeps its ancestors so chains stay rooted. This implements the
// telemetry handler's TraceSource.
func (t *Tracer) SpanTreesJSON(from, to int) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	keep := map[string]bool{}
	for _, id := range t.order {
		s := t.spans[id]
		end := s.EndPeriod
		if s.Open() {
			end = int(^uint(0) >> 1) // open: no upper bound
		}
		if s.Period > to && to >= 0 {
			continue
		}
		if end < from {
			continue
		}
		keep[id] = true
		for p := s.Parent; p != "" && !keep[p]; {
			keep[p] = true
			ps := t.spans[p]
			if ps == nil {
				break
			}
			p = ps.Parent
		}
	}
	nodes := map[string]*treeNode{}
	var roots []*treeNode
	for _, id := range t.order {
		if !keep[id] {
			continue
		}
		s := t.spans[id]
		n := &treeNode{Span: *s}
		nodes[id] = n
		if parent := nodes[s.Parent]; parent != nil {
			parent.Children = append(parent.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	if roots == nil {
		roots = []*treeNode{}
	}
	return json.MarshalIndent(roots, "", " ")
}

// sortedNodeNames returns the tracked node names in order — the
// deterministic iteration idiom for the internal maps.
func (t *Tracer) sortedNodeNames() []string {
	names := make([]string, 0, len(t.nodes))
	for n := range t.nodes {
		//lint:ignore determinism names are sorted immediately below
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// OpenWindows reports the nodes with open cap/failsafe/fault/death
// windows, for tests and status rendering.
func (t *Tracer) OpenWindows() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := ""
	for _, n := range t.sortedNodeNames() {
		o := t.nodes[n]
		if c := t.caps[n]; c != nil {
			out += fmt.Sprintf("%s:cap(%s) ", n, c.span.ID)
		}
		if o.failSafe != nil {
			out += fmt.Sprintf("%s:failsafe ", n)
		}
		if o.fault != nil {
			out += fmt.Sprintf("%s:fault ", n)
		}
		if o.dead != nil {
			out += fmt.Sprintf("%s:dead ", n)
		}
	}
	return out
}
