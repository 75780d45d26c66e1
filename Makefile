# Developer entry points. `make lint` is the exact command CI's lint job
# runs, so one invocation reproduces the gate locally.

GO ?= go

.PHONY: all build test race vet fmtcheck lint lint-json bits bench

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bits runs the bit-contract tests — the pinned factor and solution hashes
# (complete and IC), SolveMulti ≡ per-column Solve at every lane remainder
# of the interleaved backward sweep, folded ≡ unfolded factor bytes and
# the protocol's counts — on the kernel path this host selects, then again
# under -tags purego (Go loops instead of the assembly), plus the kernels'
# vector ≡ Go tests under purego. Any moved bit fails it.
BITS = Golden|SolveMultiWidthBits|SubtreeFoldBits|ProtocolCounts
bits:
	$(GO) test -count=1 -run '$(BITS)' ./internal/core
	$(GO) test -count=1 -tags purego -run '$(BITS)' ./internal/core
	$(GO) test -count=1 -tags purego ./internal/blas

# vet runs the standard analyzer set — which includes the -copylocks class
# of checks that guards the engine's typed atomics and mutex-holding
# structs against by-value copies — over the main and test packages.
vet:
	$(GO) vet ./...

# fmtcheck fails when gofmt would rewrite a file. The analyzers' testdata
# trees are excluded: they hold deliberately odd sources.
fmtcheck:
	@out="$$(gofmt -l . | grep -v '/testdata/' || true)"; \
	if [ -n "$$out" ]; then echo "gofmt would rewrite:" >&2; echo "$$out" >&2; exit 1; fi

# lint is gofmt cleanliness and vet plus the custom sympacklint suite,
# the eight analyzers of DESIGN.md §10: atomicconsistency, ctxflow,
# errflow, goroutineleak, lockorder, mutexguard, nondetflow and
# unusedignore.
# sympacklint exits 2 on any unsuppressed finding. The seeded-violation
# gates that prove each analyzer still trips run in `go test
# ./cmd/sympacklint` (TestGates).
lint: fmtcheck vet
	$(GO) run ./cmd/sympacklint ./...

# lint-json emits the machine-readable report (one JSON object per line:
# file, line, analyzer, message, suppressed, note — audited suppressions
# included) to lint-report.jsonl. Same exit-code contract as lint.
lint-json:
	$(GO) run ./cmd/sympacklint -json ./... > lint-report.jsonl
	@echo "wrote lint-report.jsonl"

# bench runs one workload of the wall-clock benchmark (bench/, declared in
# BENCHMARK.json) for a short untraced pass: `make bench W=flan_w1`.
W ?= laplace_r4
bench:
	bash bench/run.sh --workload $(W) --seed 1 --seconds 2 --trace 0
