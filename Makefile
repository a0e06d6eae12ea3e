# Developer entry points. `make check` is the pre-PR gate: everything it
# runs must pass before a change is committed.

GO ?= go
FUZZTIME ?= 2s

.PHONY: check vet build test race bench benchmod fmt fuzz chaos ha admit hier perf

check: vet build race fuzz benchmod

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short smoke runs of every fuzz target (go test -fuzz takes exactly one
# anchored target per invocation). Raise FUZZTIME for a real session.
fuzz:
	$(GO) test ./internal/remos/agent -run='^$$' -fuzz='^FuzzReadFrame$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/remos/agent -run='^$$' -fuzz='^FuzzFrameRoundTrip$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/remos/agent -run='^$$' -fuzz='^FuzzChaosCorruptFrame$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/topology -run='^$$' -fuzz='^FuzzParseGraph$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/topology -run='^$$' -fuzz='^FuzzReadDocument$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz='^FuzzSweepEquivalence$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/lease -run='^$$' -fuzz='^FuzzBatchWALRecord$$' -fuzztime=$(FUZZTIME)

# Fault-schedule scenario against a real loopback agent fleet, race
# detector on, over two seeds: hung/crashed agents, degraded service, full
# recovery.
chaos:
	$(GO) test -race ./internal/experiment -run='^TestChaosSchedule$$' -v

# Replicated-ledger fault-injection harness, race detector on: a 3-replica
# in-process cluster put through kill-the-leader, follower-partition, and
# torn-append schedules, over two seeds. Fails when any acked lease is
# lost, any lease is double-admitted, or failover misses its budget.
ha:
	$(GO) test -race ./internal/experiment -run='^TestHASchedules$$' -v

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# bench/ is a module of its own, so `./...` above never sees it: vet it and
# run its self-tests (~12 s offline, including a smoke run of the real
# daemons) so a change that breaks the benchmark fails here, not in the
# pipeline that runs it.
benchmod:
	(cd bench && $(GO) vet ./... && $(GO) test ./...)

# Epoch-batched admission, under the race detector: the serial-equivalence
# wall (the correctness contract batching rides on), the pipeline's own
# tests, then the service counts — n concurrent leased selects commit as
# one batch with one WAL line, and 5000 identical plain selects on the CMU
# testbed cost one plan, one snapshot and no 5xx.
admit:
	$(GO) test -race ./internal/lease -run='^TestBatch' -v
	$(GO) test -race ./internal/admission -v
	$(GO) test -race ./internal/selectsvc -run 'Batched|PlanCacheSingleflight' -v

# Grouped selection gate, under the race detector: the exact-equivalence
# test walls (the one sweep against its literal oracle, ungrouped and
# grouped; hierarchy's hand-off; the service wiring), then the 24-topology
# randomized grouped-vs-ungrouped suite, which fails on any inexact
# comparison. What grouping buys in time is `make perf`'s tiered10k_hier
# workload to say.
hier:
	$(GO) test -race ./internal/core -run='Equivalence|Scratch' -v
	$(GO) test -race ./internal/hierarchy -v
	$(GO) test -race ./internal/selectsvc -run='Hierarchy' -v
	$(GO) test -race ./internal/experiment -run='^TestHierEquivalenceSuite$$' -v

# The end-to-end benchmark BENCHMARK.json declares: a real selectd (and,
# for fig4_advisory, a remosd fleet) behind sockets under open-loop load,
# one 22-second run per workload, each printing its metrics and exiting
# nonzero on a failed correctness check. bench/ is a module of its own
# that builds the daemons from this checkout into .bench_build/. All four
# workloads run whatever the earlier ones did — flat200_admit's closed loop
# sits on the ledger's capacity edge and a saturation 409 there must not
# hide tiered10k_hier — then one line per workload says what happened (from
# the run's last JSON line, and bench/out/runs.json for the closed-loop
# rate, the collections selectd ran and the whole-phase p99), and the target
# fails at the end if any run did.
perf: SHELL := /bin/bash
perf:
	@set -o pipefail; mkdir -p .bench_build; rc=0; summary=; \
	for w in fig4_advisory flat200_sweep flat200_admit tiered10k_hier; do \
		log=.bench_build/perf_$$w.log; \
		bash bench/run.sh --workload $$w --seed 1 --seconds 22 --trace 0 | tee $$log || rc=1; \
		last=$$(grep '^{"attempted":' $$log | tail -1); \
		if [ -z "$$last" ]; then summary+="$$w: no result (the run died before its checks)"$$'\n'; continue; fi; \
		field() { sed -n "s/.*\"$$1\":\([a-z0-9]*\).*/\1/p" <<<"$$last"; }; \
		metric() { sed -n "s/.*\"$$1\":{\"value\":\([^,}]*\).*/\1/p" <<<"$$last"; }; \
		info() { sed -n "s/.*\"$$1\": *\([0-9.e+-]*\).*/\1/p" bench/out/runs.json | tail -1; }; \
		summary+=$$(printf '%-15s correct=%s failed=%s/%s setup_s=%.3f peak_rss_mb=%.1f alloc_kb_per_req=%.1f allocs_per_req=%.0f throughput_whole_phase_rps=%.0f gc_cycles=%.0f select_p99_whole_phase_ms=%.1f' \
			$$w $$(field correct) $$(field failed) $$(field attempted) $$(metric setup_s) $$(metric peak_rss_mb) \
			$$(metric alloc_kb_per_req) $$(metric allocs_per_req) $$(info throughput_whole_phase_rps) \
			$$(info gc_cycles) $$(info select_p99_whole_phase_ms))$$'\n'; \
	done; \
	printf '\n%s' "$$summary"; exit $$rc

fmt:
	gofmt -l -w $(shell $(GO) list -f '{{.Dir}}' ./...)
