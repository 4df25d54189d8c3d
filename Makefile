# Convenience targets for the superpose reproduction.

GO ?= go

.PHONY: all build test vet bench bench-parallel bench-scale test-race cover experiments experiments-full serve smoke smoke-cluster clean

all: vet test build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	gofmt -l .

# Short mode skips the multi-case pipeline integration runs.
test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem .

# Speedup curve of the parallel engine (workers 1 / 4 / NumCPU),
# archived as a machine-readable artifact. Speedup ≈ 1.0 on a single-core runner.
bench-parallel:
	$(GO) test -run '^$$' -bench BenchmarkCertifyLotParallel -benchtime 3x . \
		| $(GO) run ./cmd/benchjson > BENCH_parallel.json
	cat BENCH_parallel.json

# Capacity-tier scale curve (10⁴/10⁵/10⁶ gates certified, 10⁷
# parse-and-levelize only): per-point wall-clock phase timings and peak
# RSS, each point isolated in its own child process. The 10⁶ certify
# point takes minutes; bench-scale-smoke is the CI-budget variant.
bench-scale:
	$(GO) run ./cmd/benchjson -scale > BENCH_scale.json
	cat BENCH_scale.json

bench-scale-smoke:
	$(GO) run ./cmd/benchjson -scale -max-gates 100000 > BENCH_scale_ci.json
	cat BENCH_scale_ci.json

# The determinism guarantee under the race detector: shuffled, twice.
test-race:
	$(GO) test -race -count=2 -shuffle=on ./...

cover:
	$(GO) test -cover ./...

# The certification service daemon (SIGINT/SIGTERM drains gracefully).
serve:
	$(GO) run ./cmd/superposed -addr 127.0.0.1:8418

# End-to-end smoke of the daemon: boot on an ephemeral port, submit a
# small detect job, poll it to completion, assert a verdict.
smoke:
	./scripts/superposed_smoke.sh

# Cluster failover smoke: coordinator + two workers, SIGKILL the busy
# one mid-lot, require a byte-identical failed-over report.
smoke-cluster:
	./scripts/cluster_smoke.sh

# The evaluation tables and figures at a quick scale.
experiments:
	$(GO) run ./cmd/experiments -table all -scale 0.05

# Published-size benchmark circuits (slow; see EXPERIMENTS.md).
experiments-full:
	$(GO) run ./cmd/experiments -table 1 -scale 1.0

# The artifacts requested by the reproduction protocol.
artifacts:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	rm -f test_output.txt bench_output.txt .fullscale_table1.txt .fs_*.txt
