# GRETEL reproduction — common tasks. Everything is plain `go` under the
# hood; the targets just bundle the invocations used in README/EXPERIMENTS.

GO ?= go

.PHONY: all build test race loc loc-gate bench bench-baseline bench-gate experiments examples fmt vet clean

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
LOC_CEILING := 19892

loc-gate:
	@total=$$($(MAKE) -s loc | awk '$$2 == "total" { print $$1 }'); \
	echo "non-test Go lines: $$total (ceiling $(LOC_CEILING))"; \
	[ "$$total" -le $(LOC_CEILING) ]
	@[ "$$(grep -rn 'IngestShards' --include='*.go' . | grep -vc '^./bench/')" -eq 1 ] # the inert field the ROADMAP's "Refresh the benchmark contract" item deletes
	@[ "$$(grep -rn '\.Events()' --include='*.go' . | grep -vc '^./bench/')" -eq 2 ] # Receiver.Events' one remaining test, TestReceiverCloseMidBurst's Events case; the same item deletes both

# Every benchmark of the root package — the fourteen pipeline scenarios
# and the paper-figure / ablation ones — on the full workloads, three
# passes per case, in Go's benchmark text format. For a profile add
# `-cpuprofile cpu.out` to the same line and read it with
# `go tool pprof -top`.
bench:
	@mkdir -p out/bench
	$(GO) test -run '^$$' -bench . -benchtime 3x -benchmem . | tee out/bench/BENCH-full.txt

# Regenerate the committed short-mode baseline the gate compares against.
bench-baseline:
	bash ci/bench_run.sh > BENCH.txt

# The CI regression gate: fresh short-mode run vs the committed BENCH.txt.
bench-gate:
	bash ci/bench_gate.sh

# Regenerate every table and figure (writes CSVs under out/).
experiments:
	$(GO) run ./cmd/gretel experiments -exp all -out out

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
