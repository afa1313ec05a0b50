# Local entry points. Every .github/workflows/ci.yml job runs these
# targets.

GO ?= go

.PHONY: all build vet fmt-check test cover race wake-stress bench-smoke bench-ratio quickcheck soak soak-ci docs ci

# soak knobs: steps per run, base seed, and the config preset
# (internal/soak: ci / default / heavy). The nightly workflow raises
# SOAK_STEPS ~10x over the PR gate.
SOAK_STEPS    ?= 2000000
SOAK_CI_STEPS ?= 200000
SOAK_SEED     ?= 1
SOAK_CONFIG   ?= heavy

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

# The tests with cross-package coverage: writes coverage.out (CI uploads
# it) and prints the total.
cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=./... ./...
	$(GO) tool cover -func=coverage.out | tail -1

# The scheduler and queue packages must be race-clean, and so must the
# public API's tests: the Sharded tests with teeth (eager publication, a
# jammed shard at tiny bounds) live in ./swan. ./internal/... includes
# the sharded workloads (streamstats, dedup) and the task-record and
# view-set recycling regressions (internal/sched/record_test.go,
# internal/core/recycle_test.go), whose assertions are the race
# detector's.
race:
	$(GO) test -race -short ./internal/... ./swan

# The park/wake protocol is a handful of orderings between two goroutines;
# what a single pass proves is little, so its tests — wake once per park,
# no lost wakeup at one-slot segments and bounds of 0, 1 and 2, eager
# publication through the batched stages — run 20 times at 1, 2 and 4 Ps
# under the race detector.
wake-stress:
	$(GO) test -race -count=20 -cpu 1,2,4 -run 'WakeOnce|NoLostWakeup|EagerPublication' ./internal/core ./swan

# Compile-and-run every benchmark once so benchmark code cannot bit-rot.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Per-element parity with a Go channel: ten runs of the 1P/1C SPSC
# ablation in one process, and the median hyperqueue ns/op over the median
# channel ns/op may not exceed 1.03 (a recorded 0.897 plus 15 %). Medians,
# because one sample of either side is noise on a shared box; each side's
# min and max over its ten samples are printed too, so a failing run shows
# which side moved. A missing entry fails the gate instead of passing it.
bench-ratio:
	@out=$$($(GO) test -run='^$$' -bench=AblationQueueVsChannel -benchtime=300ms -count=10 .) || { echo "$$out"; exit 1; }; \
	echo "$$out" | awk ' \
		/^BenchmarkAblationQueueVsChannel\// { \
			k = $$1; sub(/^[^\/]*\//, "", k); sub(/-[0-9]+$$/, "", k); \
			for (i = 2; i < NF; i++) if ($$(i + 1) == "ns/op") v[k, ++n[k]] = $$i + 0; \
		} \
		function median(k,   i, j, t, m) { \
			m = n[k]; \
			for (i = 2; i <= m; i++) for (j = i; j > 1 && v[k, j - 1] > v[k, j]; j--) { t = v[k, j]; v[k, j] = v[k, j - 1]; v[k, j - 1] = t } \
			return m % 2 ? v[k, (m + 1) / 2] : (v[k, m / 2] + v[k, m / 2 + 1]) / 2; \
		} \
		END { \
			if (!n["hyperqueue"] || !n["channel"]) { print "bench-ratio: no hyperqueue or no channel entry"; exit 1 } \
			hq = median("hyperqueue"); ch = median("channel"); \
			printf "hyperqueue median %.1f ns/op (%d runs), channel median %.1f ns/op (%d runs), ratio %.3f (bound 1.03)\n", hq, n["hyperqueue"], ch, n["channel"], hq / ch; \
			printf "hyperqueue min %.1f max %.1f ns/op, channel min %.1f max %.1f ns/op\n", v["hyperqueue", 1], v["hyperqueue", n["hyperqueue"]], v["channel", 1], v["channel", n["channel"]]; \
			exit !(hq / ch <= 1.03); \
		}'

# Serializability verifier: random single-queue, multi-queue and sharded
# programs against the serial elision, plus the hyperqueue regression
# tests under the race detector.
quickcheck:
	$(GO) run ./cmd/quickcheck -n 200
	$(GO) run ./cmd/quickcheck -n 100 -queues 2
	$(GO) run ./cmd/quickcheck -n 100 -sharded
	$(GO) test -race -count=3 -run 'Regression' ./internal/core

# Long-horizon lifecycle fuzzing (internal/soak): a config-driven op mix
# over a long-lived runtime with invariant sweeps, pool-accounting
# audits and replay-window determinism checks. `make soak` is the
# operator entry point — hours of churn at the heavy preset. Any failure prints a FAIL line with a
# copy-pasteable replay command.
soak:
	$(GO) run ./cmd/soakfuzz -config $(SOAK_CONFIG) -seed $(SOAK_SEED) -steps $(SOAK_STEPS)

# Bounded soak for the PR gate under the race detector: once at the ci
# preset and once at the chaos preset, which stripes
# cancellations, queue poisonings and deadline probes through the op mix
# at full depth — plus injected-bug smoke runs (a model-invisible value
# and a spurious cancellation) proving the harness still detects and
# replays both fault classes deterministically, and the Short-guarded
# sweeps at full depth (plain `go test` runs them without -short).
soak-ci:
	$(GO) run -race ./cmd/soakfuzz -config ci -seed $(SOAK_SEED) -steps $(SOAK_CI_STEPS)
	$(GO) run -race ./cmd/soakfuzz -config chaos -seed $(SOAK_SEED) -steps $(SOAK_CI_STEPS)
	@echo "soak-ci: verifying fault injection is detected (expect FAIL + replay line)"
	@if $(GO) run ./cmd/soakfuzz -config ci -seed 3 -steps 9000 -fault 4321 >/tmp/soak-fault.out 2>&1; then \
		echo "soak-ci: injected fault was NOT detected"; cat /tmp/soak-fault.out; exit 1; \
	else \
		grep -m1 '^FAIL soak' /tmp/soak-fault.out; echo "soak-ci: injected fault detected ✓"; \
	fi
	@echo "soak-ci: verifying a spurious cancellation is detected (expect FAIL + replay line)"
	@if $(GO) run ./cmd/soakfuzz -config ci -seed 3 -steps 9000 -fault 4321 -faultkind cancel >/tmp/soak-cancel.out 2>&1; then \
		echo "soak-ci: injected cancellation was NOT detected"; cat /tmp/soak-cancel.out; exit 1; \
	else \
		grep -m1 '^FAIL soak' /tmp/soak-cancel.out; echo "soak-ci: injected cancellation detected ✓"; \
	fi
	$(GO) test -race -count=1 ./internal/soak/
	$(GO) test -count=1 ./internal/core/ ./internal/workloads/...

# Documentation is executable: the swan Example functions are the code
# samples README/ARCHITECTURE point at, and running them catches doc rot.
# The examples run too: quickstart exits 1 on an order violation, and
# streamstats must print the same digest at 1 and at 2 workers, as its
# header promises for any worker count.
docs:
	$(GO) test -run Example -v ./swan
	$(GO) run ./examples/quickstart -workers 2 -total 2000
	$(GO) run ./examples/logpipeline -files 20
	@a=$$($(GO) run ./examples/streamstats -samples 20000 -workers 1 | grep '^digest '); \
	b=$$($(GO) run ./examples/streamstats -samples 20000 -workers 2 | grep '^digest '); \
	echo "streamstats -workers 1: $$a"; echo "streamstats -workers 2: $$b"; \
	if [ -z "$$a" ] || [ "$$a" != "$$b" ]; then \
		echo "streamstats: the digest differs between -workers 1 and -workers 2"; exit 1; \
	fi

ci: build vet fmt-check cover race wake-stress bench-smoke bench-ratio quickcheck soak-ci docs
