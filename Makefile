# GRETEL reproduction — common tasks. Everything is plain `go` under the
# hood; the targets just bundle the invocations used in README/EXPERIMENTS.

GO ?= go

.PHONY: all build test race loc loc-gate bench bench-go bench-baseline bench-gate experiments examples fmt vet clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Non-test Go lines per package and in total under internal/ and cmd/ —
# the number ROADMAP aim 2 tracks ("net non-test LoC should go down").
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# The ratchet on that number: fail when the total exceeds the ceiling.
# A PR that removes code lowers LOC_CEILING to its new total; one that
# must raise it says why in CHANGES.md.
LOC_CEILING := 23599

loc-gate:
	@total=$$($(MAKE) -s loc | awk '$$2 == "total" { print $$1 }'); \
	echo "non-test Go lines: $$total (ceiling $(LOC_CEILING))"; \
	[ "$$total" -le $(LOC_CEILING) ]
	@[ "$$(grep -rn 'IngestShards' --include='*.go' . | grep -vc '^./bench/')" -eq 1 ] # the inert field ROADMAP item 7 deletes

# Scenario bench harness (full workloads, pinned iteration count);
# writes BENCH_<scenario>.json into out/bench plus a table on stderr.
bench:
	$(GO) run ./cmd/gretel-bench run -scenario all -iterations 3 -report json -out-dir out/bench

# The classic go-test benchmarks (same workloads via internal/experiments/bench.go).
bench-go:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Regenerate the committed short-mode baselines at the repo root.
bench-baseline:
	$(GO) run ./cmd/gretel-bench run -scenario all -short -iterations 3 -report json -out-dir .

# The CI regression gate: fresh short-mode run vs committed baselines.
bench-gate:
	bash ci/bench_gate.sh

# Regenerate every table and figure (writes CSVs under out/).
experiments:
	$(GO) run ./cmd/gretel-experiments -exp all -out out

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/vmcreate_fault
	$(GO) run ./examples/api_bottleneck
	$(GO) run ./examples/parallel_ops
	$(GO) run ./examples/rootcause
	$(GO) run ./examples/correlation

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	rm -rf out
