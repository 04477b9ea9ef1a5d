# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); keep them in sync. `make lines` is not a CI
# step: it reports the non-test Go lines a change adds and removes
# (`make lines BASE=<commit>`), the figure CHANGES.md records.

GO ?= go
# Benchmark duration for `make bench`. CI smokes with 1x; use 2s+ on an
# idle machine for numbers worth comparing.
BENCHTIME ?= 2s
# Commit `make lines` compares the working tree against.
BASE ?= HEAD

.PHONY: all build test short race fuzz vet fmt bench lines

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

# race runs the race-detector steps of the CI test job, in CI order.
race:
	$(GO) test -race -short ./internal/check/
	$(GO) test -race -run 'TestAxiomVsOperationalOracles' -count=1 ./internal/check/
	$(GO) test -race -run 'TestSatFastVsEnumeration' -count=1 ./internal/check/
	$(GO) test -race -short ./internal/faults/ ./internal/machine/
	$(GO) test -race -count=1 -run 'TestPooledMachine|TestMachineReset' ./internal/machine/
	$(GO) run -race ./cmd/wofuzz -seed 1 -n 4 -runs 1 -policies WO-Def2,SC -topos mesh -procs 64 -dirmode limited -q

# fuzz runs the CI test job's bounded fuzz step.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 20s ./internal/lang

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# bench regenerates BENCH_oracle.json for the current tree. To refresh
# the committed before/after artifact, first capture a baseline on the
# pre-change commit:
#   git worktree add .bench-base <base-commit>
#   (cd .bench-base && ../scripts/bench.sh -benchtime $(BENCHTIME) -o /tmp/baseline.json)
#   git worktree remove --force .bench-base
#   scripts/bench.sh -benchtime $(BENCHTIME) -baseline /tmp/baseline.json -o BENCH_oracle.json
bench:
	scripts/bench.sh -benchtime $(BENCHTIME) -o BENCH_oracle.json

# lines prints the non-test Go lines added, removed and net between
# $(BASE) and the working tree: tracked changes from git diff --numstat,
# plus every line of untracked (not ignored) new files.
lines:
	@{ git diff --numstat $(BASE) -- '*.go' ':!*_test.go'; \
	  git ls-files -z -o --exclude-standard -- '*.go' ':!*_test.go' | \
	  xargs -0 -r awk 'END { print NR "\t0" }'; } | \
	awk '{ a += $$1; r += $$2 } END { printf "non-test Go lines: +%d -%d net %+d\n", a, r, a - r }'
