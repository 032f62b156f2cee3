package telemetry

import (
	"testing"
)

func alertHub(cfg AlertConfig) *Hub {
	return New(Config{Alerts: &cfg})
}

// eventsOf filters a stream to the given type.
func eventsOf(events []Event, t EventType) []Event {
	var out []Event
	for _, e := range events {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

// TestAlertCapSustain: the rule fires only after the configured run of
// consecutive violations and resolves on the first clean period; the
// pair balances under CheckBalance.
func TestAlertCapSustain(t *testing.T) {
	hub := alertHub(AlertConfig{CapSustain: 3})
	emit := func(k int, power float64) {
		hub.Period(storeSample("n0", k, power, false, false))
	}
	emit(0, 950) // violation 1
	emit(1, 950) // violation 2
	if f := eventsOf(hub.Events(), EventAlertFiring); len(f) != 0 {
		t.Fatalf("fired after 2 violations: %+v", f)
	}
	emit(2, 950) // violation 3 → fire
	fired := eventsOf(hub.Events(), EventAlertFiring)
	if len(fired) != 1 || fired[0].Detail != AlertCapSustain || fired[0].Period != 2 {
		t.Fatalf("firing = %+v, want one cap-sustain at period 2", fired)
	}
	if fired[0].Value != 3 {
		t.Errorf("firing value = %v, want the run length 3", fired[0].Value)
	}
	emit(3, 800) // clean → resolve
	resolved := eventsOf(hub.Events(), EventAlertResolved)
	if len(resolved) != 1 || resolved[0].Detail != AlertCapSustain || resolved[0].Period != 3 {
		t.Fatalf("resolved = %+v, want one cap-sustain at period 3", resolved)
	}
	if err := hub.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := CheckBalance(hub.Events()); err != nil {
		t.Errorf("alert stream unbalanced: %v", err)
	}
}

// TestAlertMeterStale: fires at the dwell threshold, resolves when the
// meter is fresh again, and an alert still firing at end of run is
// resolved by Finish.
func TestAlertMeterStale(t *testing.T) {
	hub := alertHub(AlertConfig{StaleDwell: 3})
	emit := func(k, stale int) {
		s := storeSample("n0", k, 800, false, false)
		s.MeterStale = stale
		s.Degraded = stale > 0
		hub.Period(s)
	}
	emit(0, 1)
	emit(1, 2)
	if f := eventsOf(hub.Events(), EventAlertFiring); len(f) != 0 {
		t.Fatalf("fired below the dwell: %+v", f)
	}
	emit(2, 3)
	fired := eventsOf(hub.Events(), EventAlertFiring)
	if len(fired) != 1 || fired[0].Detail != AlertMeterStale || fired[0].Value != 3 {
		t.Fatalf("firing = %+v, want meter-stale value 3", fired)
	}
	// Run ends with the alert (and the degraded state) still open:
	// Finish must close both so the stream balances.
	if err := hub.Finish(); err != nil {
		t.Fatal(err)
	}
	resolved := eventsOf(hub.Events(), EventAlertResolved)
	if len(resolved) != 1 || resolved[0].Detail != AlertMeterStale {
		t.Fatalf("Finish did not resolve the open alert: %+v", resolved)
	}
	if err := CheckBalance(hub.Events()); err != nil {
		t.Errorf("stream unbalanced after Finish: %v", err)
	}
}

// TestAlertSLOBurn: the burn rate needs a full window before firing,
// fires at the threshold, and clears only at the (lower) hysteresis
// threshold.
func TestAlertSLOBurn(t *testing.T) {
	hub := alertHub(AlertConfig{SLOBurnWindow: 4, SLOBurnFire: 0.5, SLOBurnClear: 0.25})
	emit := func(k int, miss bool) {
		hub.Period(storeSample("n0", k, 800, false, miss))
	}
	// Two misses inside the first 3 periods: burn already 0.5 but the
	// window is not warm — must not fire.
	emit(0, true)
	emit(1, true)
	emit(2, false)
	if f := eventsOf(hub.Events(), EventAlertFiring); len(f) != 0 {
		t.Fatalf("fired before the window warmed: %+v", f)
	}
	emit(3, false) // window full: burn = 2/4 = 0.5 → fire
	fired := eventsOf(hub.Events(), EventAlertFiring)
	if len(fired) != 1 || fired[0].Detail != AlertSLOBurn || fired[0].Period != 3 {
		t.Fatalf("firing = %+v, want slo-burn at period 3", fired)
	}
	emit(4, false) // window [miss,_, _, _] → burn 0.25 ≤ clear → resolve
	resolved := eventsOf(hub.Events(), EventAlertResolved)
	if len(resolved) != 1 || resolved[0].Detail != AlertSLOBurn || resolved[0].Period != 4 {
		t.Fatalf("resolved = %+v, want slo-burn at period 4", resolved)
	}
	if err := hub.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := CheckBalance(hub.Events()); err != nil {
		t.Errorf("stream unbalanced: %v", err)
	}
}

// TestAlertBudgetHeadroom: rack-wide power is accumulated per period
// across nodes, the completed period is evaluated when a later one
// arrives, and sustained exhaustion fires on the synthetic rack node.
func TestAlertBudgetHeadroom(t *testing.T) {
	hub := alertHub(AlertConfig{BudgetW: 2000, BudgetFrac: 0.95, BudgetSustain: 2})
	emit := func(k int, perNodeTrueW float64) {
		for _, n := range []string{"n0", "n1"} {
			s := storeSample(n, k, perNodeTrueW, false, false)
			s.TruePowerW = perNodeTrueW
			hub.Period(s)
		}
	}
	emit(0, 980) // rack 1960 ≥ 1900: exhausted 1 (finalized at period 1)
	emit(1, 980) // exhausted 2 → fires when period 2 arrives
	emit(2, 700) // clean → resolves when finalized
	if f := eventsOf(hub.Events(), EventAlertFiring); len(f) != 1 ||
		f[0].Detail != AlertBudgetHeadroom || f[0].Node != RackNode || f[0].Period != 1 {
		t.Fatalf("firing = %+v, want budget-headroom on %q at period 1", f, RackNode)
	}
	if err := hub.Finish(); err != nil { // finalizes period 2 → resolve
		t.Fatal(err)
	}
	resolved := eventsOf(hub.Events(), EventAlertResolved)
	if len(resolved) != 1 || resolved[0].Detail != AlertBudgetHeadroom || resolved[0].Period != 2 {
		t.Fatalf("resolved = %+v, want budget-headroom at period 2", resolved)
	}
	if err := CheckBalance(hub.Events()); err != nil {
		t.Errorf("stream unbalanced: %v", err)
	}
}

// TestAlertBudgetInstalledLater: SetRackBudget arms the rule mid-run
// (the daemon installs the budget after hub construction) and a zero
// budget disables it.
func TestAlertBudgetInstalledLater(t *testing.T) {
	hub := alertHub(AlertConfig{BudgetSustain: 1})
	s := storeSample("n0", 0, 800, false, false)
	s.TruePowerW = 1900
	hub.Period(s)
	s.Period = 1
	hub.Period(s) // finalizes period 0: no budget installed → no alert
	if f := eventsOf(hub.Events(), EventAlertFiring); len(f) != 0 {
		t.Fatalf("budget rule fired without a budget: %+v", f)
	}
	hub.SetRackBudget(1000)
	s.Period = 2
	hub.Period(s) // finalizes period 1 at 1900 ≥ 950 → fire
	if f := eventsOf(hub.Events(), EventAlertFiring); len(f) != 1 || f[0].Detail != AlertBudgetHeadroom {
		t.Fatalf("firing = %+v, want budget-headroom after SetRackBudget", f)
	}
	if err := hub.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := CheckBalance(hub.Events()); err != nil {
		t.Errorf("stream unbalanced: %v", err)
	}
}

// TestAlertsDisabledByDefault: a hub without Alerts never emits alert
// events and SetRackBudget is a no-op — pre-existing event streams are
// untouched.
func TestAlertsDisabledByDefault(t *testing.T) {
	hub := New(Config{})
	if hub.AlertsEnabled() {
		t.Fatal("alerts enabled without config")
	}
	hub.SetRackBudget(100) // must not panic
	for k := 0; k < 10; k++ {
		hub.Period(storeSample("n0", k, 950, true, true))
	}
	if err := hub.Finish(); err != nil {
		t.Fatal(err)
	}
	for _, e := range hub.Events() {
		if e.Type == EventAlertFiring || e.Type == EventAlertResolved {
			t.Fatalf("alert event %+v from an alert-less hub", e)
		}
	}
}

// TestFiredAlerts: the scan helper returns firings in stream order.
func TestFiredAlerts(t *testing.T) {
	events := []Event{
		{Type: EventPeriodEnd},
		{Type: EventAlertFiring, Detail: AlertCapSustain, Node: "a"},
		{Type: EventAlertResolved, Detail: AlertCapSustain, Node: "a"},
		{Type: EventAlertFiring, Detail: AlertMeterStale, Node: "b"},
	}
	got := FiredAlerts(events)
	if len(got) != 2 || got[0].Detail != AlertCapSustain || got[1].Detail != AlertMeterStale {
		t.Errorf("FiredAlerts = %+v", got)
	}
}
