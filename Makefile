# Developer entry points. `make lint` is the exact command CI's lint job
# runs, so one invocation reproduces the gate locally.

GO ?= go

.PHONY: all build test race vet fmtcheck lint lint-gates lint-json lint-ratchet lint-baseline

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

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

# lint is gofmt cleanliness and vet plus the custom sympacklint suite
# (determinism, atomicity, future-error, lockset/guarded-by,
# suppression-audit, and wall-clock invariants; see DESIGN.md §10).
# sympacklint exits 2 on any unsuppressed finding.
lint: fmtcheck vet
	$(GO) run ./cmd/sympacklint ./...

# lint-gates proves the analyzers still trip through the `go vet -vettool`
# protocol: each module under cmd/sympacklint/testdata/gates/<analyzer>/
# seeds one violation (see the README there), and vet over it must fail
# with the phrase in its expect file. A pass means an analyzer, or the
# facts its finding needs between packages, silently stopped working.
lint-gates:
	@set -e; tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/sympacklint" ./cmd/sympacklint; \
	for dir in cmd/sympacklint/testdata/gates/*/; do \
		gate="$$(basename "$$dir")"; \
		if (cd "$$dir" && $(GO) vet -vettool="$$tmp/sympacklint" ./... 2>"$$tmp/vet.err"); then \
			echo "$$gate: seeded violation not flagged" >&2; exit 1; \
		fi; \
		grep -qF "$$(cat "$$dir/expect")" "$$tmp/vet.err" || \
			{ echo "$$gate: vet failed for the wrong reason:" >&2; cat "$$tmp/vet.err" >&2; exit 1; }; \
		echo "$$gate: flagged"; \
	done

# lint-json emits the machine-readable report (one JSON object per line:
# file, line, analyzer, message, suppressed, note — audited suppressions
# included) to lint-report.jsonl. Same exit-code contract as lint.
lint-json:
	$(GO) run ./cmd/sympacklint -json ./... > lint-report.jsonl
	@echo "wrote lint-report.jsonl"

# lint-ratchet is the CI ratchet: fail only on findings absent from the
# committed baseline (empty today — the tree is clean — so it is exactly
# `make lint`'s sympacklint half until debt is ever accepted).
lint-ratchet:
	$(GO) run ./cmd/sympacklint -baseline lint-baseline.jsonl ./...

# lint-baseline rewrites the accepted-debt baseline from the current
# findings. Shrinking the file is always safe to merge; growing it is a
# reviewed decision.
lint-baseline:
	$(GO) run ./cmd/sympacklint -write-baseline lint-baseline.jsonl ./...
	@echo "wrote lint-baseline.jsonl"
