# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); keep them in sync.

GO ?= go
# Benchmark duration for `make bench`. CI smokes with 1x; use 2s+ on an
# idle machine for numbers worth comparing.
BENCHTIME ?= 2s

.PHONY: all build test short race vet fmt bench

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
