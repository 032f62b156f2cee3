package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The energy accounting ledger. Every PeriodSample's EnergyJ is
// attributed to a (node, workload class, controller state, policy
// epoch) cell; optional carbon and price weight curves — fed from the
// daemon schedule — convert the same energy into grams of CO2 and cost
// units as it accrues. Per-node cells live in the hub's node state (no
// extra locks on the period path); the Ledger itself only holds the
// weight curves and merges cells at read time into the end-of-run
// attribution table and the capgpu_energy_* metrics.

// Controller states an energy cell can be attributed to, from most to
// least exceptional: a period that was both uncontrolled and degraded
// ledgers as uncontrolled.
const (
	EnergyStateUncontrolled = "uncontrolled"
	EnergyStateFailSafe     = "failsafe"
	EnergyStateDegraded     = "degraded"
	EnergyStateNormal       = "normal"
)

// DefaultWorkloadClass is the attribution class for samples that carry
// none.
const DefaultWorkloadClass = "default"

// WeightCurve maps a period index to a weight: grams of CO2 per kWh for
// the carbon curve, cost units per kWh for the price curve. Curves must
// be deterministic functions of the period (the daemon derives them
// from its seeded schedule).
type WeightCurve func(period int) float64

// ledgerKey is one attribution cell's identity.
type ledgerKey struct {
	class string
	state string
	epoch int
}

// ledgerCell accumulates one cell. Guarded by Hub.mu. The cached
// series handles keep the per-period metric updates allocation-free;
// cells differing only in epoch share the same underlying series (the
// metrics drop the epoch dimension to bound label cardinality).
type ledgerCell struct {
	periods int
	energyJ float64
	carbonG float64
	costU   float64

	whSeries     *series
	carbonSeries *series // lazily fetched on the first weighted period
	costSeries   *series
}

// Ledger holds the weight curves and reads the per-node cells back out
// of the hub's node state.
type Ledger struct {
	mu     sync.RWMutex
	carbon WeightCurve
	price  WeightCurve
}

func newLedger() *Ledger { return &Ledger{} }

// SetWeights installs the carbon and price curves (either may be nil).
// Install before emission starts for a fully-attributed run; swapping
// mid-run is safe and applies to energy accrued from then on.
func (l *Ledger) SetWeights(carbon, price WeightCurve) {
	l.mu.Lock()
	l.carbon = carbon
	l.price = price
	l.mu.Unlock()
}

// SetEnergyWeights forwards to the hub's ledger — the daemon-facing
// hook for feeding schedule-derived carbon/price curves.
func (h *Hub) SetEnergyWeights(carbon, price WeightCurve) {
	h.ledger.SetWeights(carbon, price)
}

// energyState classifies a sample for attribution.
func energyState(s PeriodSample) string {
	switch {
	case s.Uncontrolled:
		return EnergyStateUncontrolled
	case s.FailSafe:
		return EnergyStateFailSafe
	case s.Degraded:
		return EnergyStateDegraded
	default:
		return EnergyStateNormal
	}
}

// record folds one sample into the node's attribution cell and the
// capgpu_energy_* metrics. Callers hold Hub.mu.
func (l *Ledger) record(h *Hub, st *nodeState, s PeriodSample) {
	class := s.Class
	if class == "" {
		class = DefaultWorkloadClass
	}
	state := energyState(s)
	key := ledgerKey{class: class, state: state, epoch: s.Epoch}
	if st.ledger == nil {
		st.ledger = make(map[ledgerKey]*ledgerCell, 4)
	}
	cell, ok := st.ledger[key]
	if !ok {
		cell = &ledgerCell{
			whSeries: h.reg.fetch("capgpu_energy_wh_total", "Energy drawn in watt-hours, attributed by node, workload class, and controller state.",
				"counter", L("node", s.Node, "class", class, "state", state)),
		}
		st.ledger[key] = cell
	}
	cell.periods++
	cell.energyJ += s.EnergyJ

	kwh := s.EnergyJ / 3.6e6
	l.mu.RLock()
	carbon, price := l.carbon, l.price
	l.mu.RUnlock()

	cell.whSeries.add(s.EnergyJ / 3600)
	if carbon != nil {
		carbonG := kwh * carbon(s.Period)
		cell.carbonG += carbonG
		if cell.carbonSeries == nil {
			cell.carbonSeries = h.reg.fetch("capgpu_energy_carbon_grams_total", "Carbon attributed to drawn energy (grams CO2, schedule weight curve).",
				"counter", L("node", s.Node, "class", class, "state", state))
		}
		cell.carbonSeries.add(carbonG)
	}
	if price != nil {
		costU := kwh * price(s.Period)
		cell.costU += costU
		if cell.costSeries == nil {
			cell.costSeries = h.reg.fetch("capgpu_energy_cost_units_total", "Cost attributed to drawn energy (schedule weight curve units).",
				"counter", L("node", s.Node, "class", class, "state", state))
		}
		cell.costSeries.add(costU)
	}
}

// LedgerRow is one line of the attribution table.
type LedgerRow struct {
	Node    string  `json:"node"`
	Class   string  `json:"class"`
	State   string  `json:"state"`
	Epoch   int     `json:"epoch"`
	Periods int     `json:"periods"`
	Wh      float64 `json:"wh"`
	CarbonG float64 `json:"carbon_g"`
	CostU   float64 `json:"cost_units"`
}

// Table merges every node's cells into sorted attribution rows
// (node, class, epoch, state).
func (h *Hub) LedgerTable() []LedgerRow {
	var rows []LedgerRow
	h.mu.Lock()
	for node, st := range h.nodes {
		for key, cell := range st.ledger {
			//lint:ignore determinism rows are sorted below; output order does not depend on map order
			rows = append(rows, LedgerRow{
				Node: node, Class: key.class, State: key.state, Epoch: key.epoch,
				Periods: cell.periods, Wh: cell.energyJ / 3600,
				CarbonG: cell.carbonG, CostU: cell.costU,
			})
		}
	}
	h.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Epoch != b.Epoch {
			return a.Epoch < b.Epoch
		}
		return a.State < b.State
	})
	return rows
}

// LedgerTotalWh sums the attributed energy across every cell — the
// number the soak gate compares against an independent integration of
// the per-node power series.
func (h *Hub) LedgerTotalWh() float64 {
	var total float64
	for _, row := range h.LedgerTable() {
		total += row.Wh
	}
	return total
}

// NodeWh sums the attributed energy for one node.
func (h *Hub) NodeWh(node string) float64 {
	var total float64
	for _, row := range h.LedgerTable() {
		if row.Node == node {
			total += row.Wh
		}
	}
	return total
}

// FormatLedgerTable renders the attribution rows as the end-of-run
// table the cmds print. Carbon/cost columns appear only when any row
// carries them.
func FormatLedgerTable(rows []LedgerRow) string {
	var b strings.Builder
	withWeights := false
	for _, r := range rows {
		if r.CarbonG != 0 || r.CostU != 0 {
			withWeights = true
			break
		}
	}
	b.WriteString("energy attribution (node × class × state × epoch):\n")
	if withWeights {
		fmt.Fprintf(&b, "  %-12s %-10s %-12s %5s %8s %12s %12s %12s\n",
			"node", "class", "state", "epoch", "periods", "Wh", "gCO2", "cost")
	} else {
		fmt.Fprintf(&b, "  %-12s %-10s %-12s %5s %8s %12s\n",
			"node", "class", "state", "epoch", "periods", "Wh")
	}
	var totalWh, totalC, totalU float64
	totalP := 0
	for _, r := range rows {
		if withWeights {
			fmt.Fprintf(&b, "  %-12s %-10s %-12s %5d %8d %12.3f %12.3f %12.3f\n",
				r.Node, r.Class, r.State, r.Epoch, r.Periods, r.Wh, r.CarbonG, r.CostU)
		} else {
			fmt.Fprintf(&b, "  %-12s %-10s %-12s %5d %8d %12.3f\n",
				r.Node, r.Class, r.State, r.Epoch, r.Periods, r.Wh)
		}
		totalWh += r.Wh
		totalC += r.CarbonG
		totalU += r.CostU
		totalP += r.Periods
	}
	if withWeights {
		fmt.Fprintf(&b, "  %-12s %-10s %-12s %5s %8d %12.3f %12.3f %12.3f\n",
			"TOTAL", "", "", "", totalP, totalWh, totalC, totalU)
	} else {
		fmt.Fprintf(&b, "  %-12s %-10s %-12s %5s %8d %12.3f\n",
			"TOTAL", "", "", "", totalP, totalWh)
	}
	return b.String()
}
