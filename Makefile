# Developer entry points. `make check` is the pre-PR gate: everything it
# runs must pass before a change is committed.

GO ?= go
FUZZTIME ?= 2s

.PHONY: check vet build test race bench benchmod fmt fuzz chaos slo ha gossip admit hier perf

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
	$(GO) test ./internal/gossip -run='^$$' -fuzz='^FuzzGossipFrame$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/lease -run='^$$' -fuzz='^FuzzBatchWALRecord$$' -fuzztime=$(FUZZTIME)

# Fault-schedule scenario against a real loopback agent fleet, race
# detector on: hung/crashed agents, degraded service, full recovery.
chaos:
	$(GO) test -race ./internal/experiment -run='^TestChaosSchedule$$' -v
	$(GO) run -race ./cmd/expt -run chaos

# Replicated-ledger fault-injection harness, race detector on: a 3-replica
# in-process cluster put through kill-the-leader, follower-partition, and
# torn-append schedules. Fails when any acked lease is lost, any lease is
# double-admitted, or failover misses its budget; writes ha.json for CI.
ha:
	$(GO) test -race ./internal/experiment -run='^TestHASchedules$$' -v
	$(GO) run -race ./cmd/expt -run ha -ha-out ha.json

# Gossip-plane convergence harness, race detector on: in-process meshes
# at several fleet sizes, measuring propagation CDFs under churn, heal
# after partition, and the staleness bound live entries stay inside.
# Fails when p99 propagation or any bound is missed; writes gossip.json
# for CI.
gossip:
	$(GO) test -race ./internal/experiment -run='^TestGossipConvergence$$' -v
	$(GO) run -race ./cmd/expt -run gossip -gossip-out gossip.json

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# bench/ is a module of its own, so `./...` above never sees it: vet it and
# run its self-tests (~12 s offline, including a smoke run of the real
# daemons) so a change that breaks the benchmark fails here, not in the
# pipeline that runs it.
benchmod:
	(cd bench && $(GO) vet ./... && $(GO) test ./...)

# Sustained-load SLO harness: hammers an in-process selectd with /select
# and fails when p99 exceeds 5 ms or the 5xx rate 0.001. The p99 budget has
# ~50x headroom over the healthy cached path, so it only trips on real
# regressions (a broken plan cache, per-request sweeps), not CI noise; p999
# is left ungated because single GC pauses own it.
slo:
	$(GO) run ./cmd/expt -run slo

# Epoch-batched admission benchmark: the serial-equivalence wall under the
# race detector first (the correctness contract batching rides on), then
# the sustained-load A/B — the same leased-select load against serial and
# batched admission, both WAL-backed — which fails unless batched beats
# serial by 3x at Welch p < 0.005 with its p99 within 2x serial's.
admit:
	$(GO) test -race ./internal/lease -run='^TestBatch' -v
	$(GO) test -race ./internal/admission -v
	$(GO) run ./cmd/expt -run admit

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
