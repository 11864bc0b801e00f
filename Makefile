GO ?= go

.PHONY: build test fmtcheck lint staticcheck check bench bench-all benchmark soak crash-soak replica-soak certify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# fmtcheck fails when any Go file in the tree, the benchmark module and
# analyzer goldens included, is not gofmt-formatted.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

# lint runs the repo's custom analyzer suite (DESIGN.md, "Static
# invariants") in whole-program mode, so the cross-package checks
# (wire<->server exhaustiveness, lock-order cycles) run too. The same
# binary works as a vettool: go vet -vettool=$$(go env GOPATH)/bin/esr-lint ./...
# CI uses scripts/lint-ci.sh instead, which builds the binary and runs
# it directly: `go run` collapses the exit-2 (operational error) code
# into 1.
lint:
	$(GO) run ./cmd/esr-lint ./...

# staticcheck runs the external linters pinned by .golangci.yml when they
# are installed; offline environments skip them instead of failing.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping"; fi
	@if command -v golangci-lint >/dev/null 2>&1; then golangci-lint run; \
	else echo "golangci-lint not installed; skipping"; fi

# check is the documented pre-merge gate.
check:
	$(MAKE) fmtcheck
	$(GO) vet ./...
	$(MAKE) lint
	$(MAKE) staticcheck
	$(GO) test -race ./...

# soak runs the fault-injection soak (DESIGN.md §9) under the race
# detector: the banking workload over real TCP through drops, latency,
# partial reads/writes and mid-frame resets, asserting zero leaked
# goroutines/transactions and a conserved total balance. Short mode is
# the CI gate; drop -short for the heavier schedules.
soak:
	$(GO) test -race -short -count=1 ./internal/soak/ ./internal/faultnet/

# crash-soak runs the kill-and-restart durability soak (DESIGN.md §10)
# under the race detector: alternating clean and dirty kills over the
# write-ahead log with torn tails sheared at random crash points,
# asserting conservation, epsilon bounds and replay idempotency at every
# recovery. Short mode is the CI gate; drop -short for the seed sweep.
crash-soak:
	$(GO) test -race -short -count=1 -run 'TestCrashSoak' ./internal/soak/

# replica-soak runs the replication feed soak (DESIGN.md §13) under the
# race detector: a durable primary streams its WAL to bounded-stale
# followers over faultnet-wrapped connections (injected latency,
# fragmented reads, mid-stream resets) while the followers serve
# TIL-bounded queries. Asserts convergence to the primary's head,
# conservation of the bank total on every node, typed redirects for
# zero-epsilon queries, esr-check certification of the merged
# primary+replica trace, and zero leaked goroutines. Short mode is the
# CI gate; drop -short for the heavier run.
replica-soak:
	$(GO) test -race -short -count=1 -run 'TestReplicaSoak' ./internal/soak/

# certify is the end-to-end oracle gate (DESIGN.md §11): boot a real
# server with -trace, drive real clients, shut down, and require
# esr-check to certify the recorded history — once with epsilon bounds,
# once at ε=0 under strict conflict serializability. The soak targets
# above certify their own in-process traces; this target proves the
# on-disk trace schema round-trips through the full binary pipeline.
certify:
	sh scripts/certify-ci.sh

# bench runs the hot-path micro-benchmarks (engine, wire, WAL commit).
# `make bench-all` runs every benchmark including the figure sweeps.
bench:
	$(GO) test -run '^$$' -bench 'EngineHotPath|WireRoundTrip|WALCommit' -benchmem .

bench-all:
	$(GO) test -bench=. -benchmem

# benchmark is the end-to-end measurement (benchmark/README.md): real
# esr-server processes over TCP, open-loop paced workloads timed from
# their due time, per-layer attribution, and correctness gates. Results
# go to OUT.
OUT ?= benchmark-out
benchmark:
	bash benchmark/run.sh --seed 1 --out "$(OUT)"
