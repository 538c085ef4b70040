GO ?= go

.PHONY: all tier1 tier2 bench fuzz trace serve mp batch nodeaware spai cover

all: tier1

# tier1: the fast correctness gate — full build + gofmt + vet + full test
# suite. The gofmt step fails (and lists the files) on any formatting diff.
# perfbench/ is a nested module the root patterns never reach, so it is
# vetted and tested on its own: its replay drives krylov.DistCG and the
# split preconditioners directly.
tier1:
	$(GO) build ./...
	@fmt_out="$$(gofmt -l .)"; if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) vet ./...
	$(GO) test ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# tier2: race-detector pass over the concurrency-bearing packages (the
# simulated MPI runtime, the socket transport and the multi-process rank
# runner, the worker pool, the row-parallel FSAI builds, the batched SpMM
# and block vector kernels, the distributed solver/operator layers with the
# node-aware halo relay, the hierarchical cost model and experiment sweeps,
# the HTTP serving layer with its concurrent cached solves and job
# coalescing, the topology-carrying CLI, the column-parallel SPAI build
# with its dense QR kernel, and the root facade's cross-backend transport
# suite).
tier2:
	$(GO) build ./...
	$(GO) test -race ./internal/simmpi/... ./internal/tcpmpi/... ./internal/mprun/... ./internal/fsai/... ./internal/spai/... ./internal/dense/... ./internal/parallel/... ./internal/sparse/... ./internal/vecops/... ./internal/krylov/... ./internal/distmat/... ./internal/archmodel/... ./internal/experiments/... ./internal/serve/... ./cmd/fsaiserve/... ./cmd/mmsolve/... .

# bench: the serial-vs-parallel kernel pairs plus the CG-variant
# (classic/overlap/fused/pipelined), blocking-vs-overlap SpMV, and
# batched-vs-looped multi-RHS comparisons on the ~50k-row case, and three
# JSON artifacts: per-variant iterations/wall/modeled/meter totals
# (BENCH_pipelined.json), per-backend solve times (BENCH_transport.json),
# batched-vs-looped ns/RHS with the ~k× per-RHS communication drop
# (BENCH_batch.json + BENCH_batch.csv), and flat-vs-node-aware halo
# aggregation under a 2-node × 4-rank topology (BENCH_nodeaware.json),
# and fp64 vs fp32+refinement solves on both transports (BENCH_mixed.json).
# The nodeaware writer enforces its own structural gates — bit-identical
# solutions, unchanged inter-node bytes, strictly fewer inter-node
# messages, never-worse modeled time — and the mixed writer gates fp32
# halo bytes below 0.55x of fp64 for classic and fused CG, so a
# regression fails this target. The spai writer (BENCH_spai.json) gates
# the nonsymmetric axis: adaptive SPAI + restarted GMRES must converge in
# strictly fewer iterations than unpreconditioned GMRES on the
# Péclet-skewed instance at every measured rank count and backend.
bench:
	$(GO) test -run xxx -bench '50k' -benchmem .
	$(GO) run ./cmd/fsaibench -exp benchjson -out BENCH_pipelined.json
	$(GO) run ./cmd/fsaibench -exp transportjson -out BENCH_transport.json
	$(GO) run ./cmd/fsaibench -exp batchjson -out BENCH_batch.json -csv BENCH_batch.csv
	$(GO) run ./cmd/fsaibench -exp nodeawarejson -out BENCH_nodeaware.json
	$(GO) run ./cmd/fsaibench -exp mixedjson -transport both -out BENCH_mixed.json
	$(GO) run ./cmd/fsaibench -exp spaijson -transport both -out BENCH_spai.json

# trace: emit a sample per-iteration telemetry artifact — the consph-sim
# catalog instance solved with pipelined CG on 4 ranks, per-iteration
# residual/alpha/beta/communication deltas plus the per-window modeled-time
# split, as TRACE_pipelined.json.
trace:
	$(GO) run ./cmd/matgen -name consph-sim -o /tmp/fsaicomm-trace.mtx
	$(GO) run ./cmd/mmsolve -matrix /tmp/fsaicomm-trace.mtx -ranks 4 \
		-cg pipelined -trace TRACE_pipelined.json
	@rm -f /tmp/fsaicomm-trace.mtx

# serve: build the solver daemon, smoke-start it, probe /healthz with the
# binary's own -probe mode (no curl needed), and shut it down again. Proves
# the daemon boots and answers before anyone deploys it.
serve:
	$(GO) build -o bin/fsaiserve ./cmd/fsaiserve
	@./bin/fsaiserve -addr 127.0.0.1:8097 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	ok=1; for i in 1 2 3 4 5 6 7 8 9 10; do \
		sleep 0.3; \
		if ./bin/fsaiserve -probe http://127.0.0.1:8097/healthz; then ok=0; break; fi; \
	done; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	if [ $$ok -ne 0 ]; then echo "fsaiserve smoke test failed"; exit 1; fi; \
	echo "fsaiserve smoke test passed"

# batch: job-coalescing smoke test — start the daemon with a 500ms
# enrollment window, wait for /healthz, then run the binary's own
# -batch-probe client: three concurrent same-system solves that must merge
# into one batched solve (verified through the responses and /metrics).
batch:
	$(GO) build -o bin/fsaiserve ./cmd/fsaiserve
	@./bin/fsaiserve -addr 127.0.0.1:8098 -batch-window 500ms -batch-max 3 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	ok=1; for i in 1 2 3 4 5 6 7 8 9 10; do \
		sleep 0.3; \
		if ./bin/fsaiserve -probe http://127.0.0.1:8098/healthz; then ok=0; break; fi; \
	done; \
	if [ $$ok -eq 0 ]; then \
		if ./bin/fsaiserve -batch-probe http://127.0.0.1:8098; then ok=0; else ok=1; fi; \
	fi; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	if [ $$ok -ne 0 ]; then echo "fsaiserve batch smoke test failed"; exit 1; fi; \
	echo "fsaiserve batch smoke test passed"

# nodeaware: node-aware aggregation smoke test — solve one catalog instance
# on 4 ranks with the flat schedule and again under a 2-node × 2-rank
# topology (which prints the intra/inter meter split), then diff the two
# solution files: aggregation must not change a single bit of the answer.
# The pair runs twice: pipelined CG at fp64, and classic CG at fp32
# (float32 halo wire format through the relay, FP64 refinement).
nodeaware:
	$(GO) run ./cmd/matgen -name consph-sim -o /tmp/fsaicomm-nodeaware.mtx
	@set -e; for cfg in "pipelined fp64" "classic fp32"; do \
		set -- $$cfg; \
		$(GO) run ./cmd/mmsolve -matrix /tmp/fsaicomm-nodeaware.mtx -ranks 4 \
			-cg $$1 -precision $$2 -out /tmp/fsaicomm-nodeaware-flat.txt; \
		$(GO) run ./cmd/mmsolve -matrix /tmp/fsaicomm-nodeaware.mtx -ranks 4 \
			-cg $$1 -precision $$2 -nodes 2 -ranks-per-node 2 -out /tmp/fsaicomm-nodeaware-nap.txt; \
		if cmp -s /tmp/fsaicomm-nodeaware-flat.txt /tmp/fsaicomm-nodeaware-nap.txt; then \
			echo "node-aware smoke test passed ($$1 $$2): solutions bit-identical"; \
		else \
			echo "node-aware smoke test failed ($$1 $$2): solutions differ"; exit 1; \
		fi; \
	done
	@rm -f /tmp/fsaicomm-nodeaware.mtx /tmp/fsaicomm-nodeaware-flat.txt /tmp/fsaicomm-nodeaware-nap.txt

# spai: nonsymmetric-axis smoke test — generate the upwind
# convection–diffusion catalog instance (nonsymmetric, so the CG family
# rejects it), solve it with the adaptive SPAI right inverse inside
# restarted GMRES on 4 flat ranks and again under a 2-node × 2-rank
# topology, then diff the two solution files: the node-aware schedule must
# not change a single bit of the answer on the GMRES path either.
spai:
	$(GO) run ./cmd/matgen -name convdiff-skew-sim -o /tmp/fsaicomm-spai.mtx
	$(GO) run ./cmd/mmsolve -matrix /tmp/fsaicomm-spai.mtx -method spai \
		-solver gmres -spai-steps 2 -ranks 4 -out /tmp/fsaicomm-spai-flat.txt
	$(GO) run ./cmd/mmsolve -matrix /tmp/fsaicomm-spai.mtx -method spai \
		-solver gmres -spai-steps 2 -ranks 4 -nodes 2 -ranks-per-node 2 \
		-out /tmp/fsaicomm-spai-nap.txt
	@if cmp -s /tmp/fsaicomm-spai-flat.txt /tmp/fsaicomm-spai-nap.txt; then \
		echo "spai smoke test passed: solutions bit-identical"; \
	else \
		echo "spai smoke test failed: solutions differ"; exit 1; \
	fi
	@rm -f /tmp/fsaicomm-spai.mtx /tmp/fsaicomm-spai-flat.txt /tmp/fsaicomm-spai-nap.txt

# mp: multi-process smoke test — build the rank worker binary and run its
# selfcheck, which solves one catalog instance on 4 goroutine ranks and
# again on 4 OS processes over the TCP mesh and diffs the two bit for bit
# (solution, iteration count, per-rank comm meters), first as a scalar
# full-setup solve and then as a K = 4 batched one (every column's
# solution and iteration count).
mp:
	$(GO) build -o bin/fsairank ./cmd/fsairank
	./bin/fsairank -selfcheck

# cover: per-package statement coverage for the whole module.
cover:
	$(GO) test -cover ./...

# fuzz: short exploration of each sparse-format fuzz target plus the dense
# QR least-squares kernel behind SPAI (seeds already run under plain
# `go test`).
fuzz:
	$(GO) test -fuzz FuzzCSRValidate -fuzztime 30s ./internal/sparse/
	$(GO) test -fuzz FuzzCOOToCSR -fuzztime 30s ./internal/sparse/
	$(GO) test -fuzz FuzzReadMatrixMarket -fuzztime 30s ./internal/sparse/
	$(GO) test -fuzz FuzzCSR32RoundTrip -fuzztime 30s ./internal/sparse/
	$(GO) test -fuzz FuzzQRLeastSquares -fuzztime 30s ./internal/dense/
