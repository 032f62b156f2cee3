GO ?= go

.PHONY: all build test race vet fmt lint check bench bench-ratchet cover soak telemetry-verify doctor-verify trace-verify

# Ratcheted coverage floors. internal/cluster holds the parallel
# stepping and its equivalence/error-path suites; internal/controlplane
# holds the daemon's membership, checkpoint, and policy-API suites;
# internal/lint holds the contract analyzers and their fixture suites;
# internal/telemetry holds the hub, time-series store, energy
# ledger, and alert-engine suites; internal/provenance holds the
# causal tracer and the explain/attribution/verify engine behind
# capgpu-doctor -trace;
# internal/workload holds the CNN pipelines and the LLM serving family
# (continuous batching, phase power law, spec parser + fuzz corpus).
# A drop below a floor means proof rotted out. Raise a floor when
# coverage rises; never lower it.
CLUSTER_COVER_FLOOR = 95.0
CONTROLPLANE_COVER_FLOOR = 80.0
LINT_COVER_FLOOR = 90.0
TELEMETRY_COVER_FLOOR = 90.0
PROVENANCE_COVER_FLOOR = 80.0
WORKLOAD_COVER_FLOOR = 85.0

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# gofmt -l lists unformatted files; fail if any.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Domain-aware static analysis (units, determinism, floatsafety,
# errcheck, lockorder, hotalloc, barrierconfine, stickyerr); exits
# nonzero on any unsuppressed finding. Add -json for the CI-annotation
# document form.
lint:
	$(GO) run ./cmd/capgpu-lint -dir .

# Allocation ratchet: measure the hot-path micro-benchmarks and fail if
# any allocs/op exceeds its committed ceiling in BENCH_FLOORS.json.
# Ceilings are tightened by hand when an optimization lands; the tool
# never rewrites the file.
bench-ratchet:
	$(GO) run ./cmd/capgpu-bench -ratchet BENCH_FLOORS.json

# End-to-end telemetry acceptance: a short fault-injected session whose
# degraded/fail-safe windows must produce a balanced JSONL event stream
# (every enter paired with an exit) and whose cap-violation / SLO-miss
# counters must match the end-of-run metrics summary exactly.
telemetry-verify:
	$(GO) run ./cmd/capgpu-sim -seed 7 -periods 60 \
		-faults "meter-dropout@10+6;meter-stuck@25+4;meter-spike@40+4*250" \
		-events /tmp/capgpu-telemetry-verify.jsonl \
		-metrics-snapshot /tmp/capgpu-telemetry-verify.prom \
		-events-selfcheck > /dev/null
	@echo "telemetry-verify: ok"

# End-to-end flight-recorder acceptance: capgpu-doctor must exit 0 on
# both a clean run and the R1 fault scenario under graceful degradation
# (every incident attributed: the blind window, the spike artifact, the
# actuator loss), and its flight record must be non-empty.
doctor-verify:
	$(GO) run ./cmd/capgpu-sim -seed 7 -periods 100 \
		-flight /tmp/capgpu-doctor-clean.jsonl > /dev/null
	$(GO) run ./cmd/capgpu-doctor -flight /tmp/capgpu-doctor-clean.jsonl > /dev/null
	$(GO) run ./cmd/capgpu-sim -seed 7 -periods 100 \
		-faults "meter-dropout@30+10;meter-spike@55+6*300;actuator-loss@70+5:gpu1*0.7" \
		-flight /tmp/capgpu-doctor-r1.jsonl \
		-flight-dump /tmp/capgpu-doctor-r1-dumps.jsonl \
		-events /tmp/capgpu-doctor-r1-events.jsonl > /dev/null
	$(GO) run ./cmd/capgpu-doctor -flight /tmp/capgpu-doctor-r1.jsonl \
		-events /tmp/capgpu-doctor-r1-events.jsonl > /dev/null
	@echo "doctor-verify: ok"

# End-to-end provenance acceptance: a golden daemon run with churn and
# hot reconfigs on every op kind, traced, then diagnosed offline by
# capgpu-doctor over the whole flight directory at the soak's 3 %
# slack: every node's incidents must be explained and every cap change
# in every flight stream attributed to a cap-change span whose period,
# node, and parent agree with the record. The negative control strips
# one cause from n003's period-150 record; the doctor must then exit 2
# and name that change as unattributed.
TRACE_VERIFY_DIR = /tmp/capgpu-provenance-verify
trace-verify:
	@rm -rf $(TRACE_VERIFY_DIR) && mkdir -p $(TRACE_VERIFY_DIR)/run
	$(GO) build -o $(TRACE_VERIFY_DIR)/capgpu-doctor ./cmd/capgpu-doctor
	$(GO) run ./cmd/capgpu-rack -serve -nodes 6 -periods 200 -workers 4 \
		-schedule "join@40:heavy;budget@60*4800;kill@88:n001;drain@120:n002;cap@150:n003*700;revive@160:n001" \
		-flight-dir $(TRACE_VERIFY_DIR)/run \
		-events $(TRACE_VERIFY_DIR)/run/events.jsonl \
		-trace $(TRACE_VERIFY_DIR)/run/trace.jsonl > /dev/null
	$(TRACE_VERIFY_DIR)/capgpu-doctor -flight $(TRACE_VERIFY_DIR)/run \
		-events $(TRACE_VERIFY_DIR)/run/events.jsonl \
		-trace $(TRACE_VERIFY_DIR)/run/trace.jsonl -slack 0.03 -true-slack 0.03
	@cp -r $(TRACE_VERIFY_DIR)/run $(TRACE_VERIFY_DIR)/neg
	@sed '/"period":150,/s/"cause_id":"cap:n003@150",//' $(TRACE_VERIFY_DIR)/run/n003.flight.jsonl \
		> $(TRACE_VERIFY_DIR)/neg/n003.flight.jsonl
	@code=0; $(TRACE_VERIFY_DIR)/capgpu-doctor -flight $(TRACE_VERIFY_DIR)/neg \
		-events $(TRACE_VERIFY_DIR)/neg/events.jsonl \
		-trace $(TRACE_VERIFY_DIR)/neg/trace.jsonl -slack 0.03 -true-slack 0.03 \
		> $(TRACE_VERIFY_DIR)/neg.txt || code=$$?; \
	if [ "$$code" != 2 ] || ! grep -qxF 'UNATTRIBUTED: n003 period 150: cap moved 1033.6→700.0 W with no cause' $(TRACE_VERIFY_DIR)/neg.txt; then \
		echo "trace-verify: negative control not caught (doctor exit $$code)"; cat $(TRACE_VERIFY_DIR)/neg.txt; exit 1; \
	fi
	@echo "trace-verify: ok (negative control exits 2)"

# Coverage ratchet: each listed package must stay at or above its floor.
COVER_FLOORS = cluster:$(CLUSTER_COVER_FLOOR) controlplane:$(CONTROLPLANE_COVER_FLOOR) \
	lint:$(LINT_COVER_FLOOR) telemetry:$(TELEMETRY_COVER_FLOOR) \
	provenance:$(PROVENANCE_COVER_FLOOR) workload:$(WORKLOAD_COVER_FLOOR)

cover:
	@for pair in $(COVER_FLOORS); do \
		pkg="$${pair%%:*}"; floor="$${pair##*:}"; \
		$(GO) test -coverprofile=/tmp/capgpu-$$pkg.cov ./internal/$$pkg/ | tee /tmp/capgpu-$$pkg-cover.txt; \
		pct="$$(grep -o 'coverage: [0-9.]*' /tmp/capgpu-$$pkg-cover.txt | grep -o '[0-9.]*')"; \
		ok="$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN { print (p >= f) ? 1 : 0 }')"; \
		if [ "$$ok" != "1" ]; then \
			echo "cover: internal/$$pkg coverage $$pct% is below the $$floor% floor"; exit 1; \
		fi; \
		echo "cover: internal/$$pkg $$pct% >= $$floor% floor"; \
	done

# Deterministic control-plane soak: one simulated day (21600 periods)
# of diurnal + bursty load over a seeded churn schedule (joins, drains,
# node deaths) and hot reconfigs, gated on the budget invariant holding
# every period and on capgpu-doctor explaining every per-node incident.
# Exit 0 means the day was clean; artifacts (events, flight records,
# doctor reports, final checkpoint, metrics) land in /tmp/capgpu-soak.
soak:
	@rm -rf /tmp/capgpu-soak && mkdir -p /tmp/capgpu-soak
	$(GO) run ./cmd/capgpu-rack -soak \
		-events /tmp/capgpu-soak/events.jsonl \
		-metrics-snapshot /tmp/capgpu-soak/metrics.prom \
		-checkpoint /tmp/capgpu-soak/soak.ckpt \
		-flight-dir /tmp/capgpu-soak > /tmp/capgpu-soak/soak.log
	@tail -n 1 /tmp/capgpu-soak/soak.log
	@echo "soak: ok (artifacts in /tmp/capgpu-soak)"

check: build vet fmt lint test race cover bench-ratchet telemetry-verify doctor-verify trace-verify soak

bench:
	$(GO) test -bench . -benchtime 1x .
