# Build, verify and benchmark the FedProphet reproduction.
#
#   make ci      - everything the tier-1 gate runs: build, vet, lint, test,
#                  race, codec fuzz pass, docs links, smokes (bench-smoke too)
#   make bench-smoke    - the repository's one benchmark (bench/, declared in
#                         BENCHMARK.json; see bench/README.md) at smoke sizes:
#                         every workload and output check in <5 s, plus the
#                         nested bench module's own tests (in ci)
#   make bench   - paper tables/figures as go benchmarks with -benchmem
#
# The bench-conv/-json/-wire/-serve targets below regenerate BENCH_*.json with
# cmd/bench*: historical one-off records, superseded by bench/ for every
# performance claim.
#   make bench-parallel - client-parallelism wall-clock benchmark
#   make bench-conv     - direct vs GEMM convolution backend benchmark
#   make bench-json     - record the conv-backend baseline to BENCH_conv.json
#   make bench-wire     - record the wire-protocol baseline to BENCH_wire.json
#                         (bytes/round + round latency at raw/8/4/2 bits)
#   make bench-serve    - record the parameter-server baseline to BENCH_serve.json
#                         (updates/sec + push latency + allocs/op, single-mutex
#                         vs sharded, at N=4/16/64 concurrent clients, plus the
#                         straggler phases: sync quorum vs buffered async with
#                         one 4x-slow client, recording wasted training passes,
#                         plus the pull-heavy phase: 256 concurrent pullers of
#                         a ~1M-parameter model under cache churn;
#                         pinned to GOMAXPROCS=4 so the concurrency plane is
#                         exercised even on smaller CI hosts)
#   make smoke-edge     - 2-tier hierarchical topology check: edge-aggregated
#                         vs flat fleet, bit-identical final models (in ci)
#   make smoke-pull     - ~2s serve-path check: high-fan-out pull phase under
#                         cache churn against both servers (in ci)
#   make smoke-wal      - ~2s crash drill: WAL-backed server SIGKILLed
#                         mid-round twice, recovered, federation finished,
#                         final model bit-identical (in ci)
#   make check-docs     - fail on dead relative links in README/docs
#   make cross   - cross-build for arm64 and vet tensor/nn/quant there: the
#                  portable GEMM path that every platform but amd64 runs, and
#                  the codec kernels whose bytes must not depend on the
#                  platform (in ci)
#   make lint    - fplint: the repo's own analyzers (atomicfield, lockorder,
#                  determinism, sentinelerr, poolleak) over the whole module
#                  and the nested bench module
#   make cover   - tests with coverage summary

GO ?= go

.PHONY: all build vet cross lint test test-race fuzz check-docs bench-smoke smoke-serve smoke-edge smoke-pull smoke-wal ci bench bench-parallel bench-conv bench-json bench-wire bench-serve cover clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# internal/tensor has one assembly file (gemm_amd64.s, checked by vet's
# asmdecl above); every other platform runs its portable Go twin. Building
# the module and vetting tensor/nn for arm64 — pure Go, offline, nothing is
# executed — keeps a break of that path from landing unseen on an amd64 box.
# internal/quant rides along: its kernels are pure Go on every platform, and
# the frames they emit are a wire format.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor/... ./internal/nn/... ./internal/quant/...

# fplint (cmd/fplint + internal/lint) machine-checks the invariants
# docs/ARCHITECTURE.md documents in prose: atomic fields stay atomic, mutexes
# respect the declared hierarchy, deterministic packages stay clock- and
# map-order-free, sentinel errors are matched with errors.Is, and pooled
# buffers are always returned. Built from this module with the standard
# library only — pinned, offline, no tool downloads. Also runnable as
# `go vet -vettool=$(CURDIR)/bin/fplint ./...`.
lint:
	$(GO) build -o bin/fplint ./cmd/fplint
	./bin/fplint ./...
	cd bench && ../bin/fplint ./...

test:
	$(GO) test ./...

# The concurrency-bearing packages (tensor worker pool + scratch arena,
# parallel GEMM convolutions, client-parallel training, the HTTP transport
# with sharded aggregation and concurrent compressed/raw clients, the pooled
# streaming codec, client workers sharing one cascade stage feature set) under
# the race detector.
test-race:
	$(GO) test -race ./internal/tensor/... ./internal/nn/... ./internal/fl/... ./internal/fldist/... ./internal/quant/... ./internal/cascade/...

# The wire-codec fuzz targets, a short live pass each on top of their seed
# corpora: FuzzDecode (raw, dense, sparse and corrupted frames — adversarial
# input to quant.Decode/StreamDecoder keeps returning ErrCodec instead of
# panicking or over-allocating) and FuzzQuantizeMatchesReference (arbitrary
# chunks — the quantize/pack/unpack kernels stay bit-identical to their
# math.Round / bit-cursor references). ~10s; part of ci.
fuzz:
	$(GO) test ./internal/quant -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 5s
	$(GO) test ./internal/quant -run '^$$' -fuzz '^FuzzQuantizeMatchesReference$$' -fuzztime 4s

# Dead relative links in the markdown docs — and dead *.md references cited
# inside Go doc comments — fail the build.
check-docs:
	$(GO) run ./cmd/checkdocs -gosrc . README.md ROADMAP.md docs

# The one benchmark at smoke sizes: all five workloads build, run and pass
# their output checks (bit-identical reps, exact wire bytes, 0 failed) with no
# timing meaning, then the nested module's unit tests. Builds into
# .bench_build/ and writes under bench/out/, both gitignored.
bench-smoke:
	bash bench/run.sh --smoke
	$(GO) -C bench test ./...

# A ~2-second benchserve run (N=8 fleet, both server implementations, plus
# the sync-vs-async straggler phases) so the concurrent push path and the
# buffered-aggregation plane are exercised on every build, not just when
# someone records a baseline.
smoke-serve:
	GOMAXPROCS=4 $(GO) run ./cmd/benchserve -smoke

# A ~2-second hierarchical topology check over real HTTP: 2 edge aggregators
# × 4 clients vs the same 8 clients flat, asserting the final models are
# bit-identical and the root saw 4x fewer push admissions.
smoke-edge:
	GOMAXPROCS=4 $(GO) run ./cmd/benchserve -smoke-edge

# A ~2-second pull-fan-out check: 64 concurrent pullers over mixed codec
# variants against both server implementations while rounds advance and the
# served cache churns — asserts the serve path survives fan-out (every
# puller completes, bytes flow), with no throughput assertion (CI machines
# are not benchmarking machines).
smoke-pull:
	GOMAXPROCS=4 $(GO) run ./cmd/benchserve -smoke-pull

# The ~2-second WAL crash drill: a child-process server is kill -9'd
# mid-round with admitted-but-uncommitted updates buffered, recovered (twice),
# the federation finishes, and the final recovered model must be bit-identical
# to the last served snapshot.
smoke-wal:
	GOMAXPROCS=4 $(GO) run ./cmd/benchserve -smoke-wal

# lint runs right after vet: invariant violations fail the build before the
# minutes-long test/race/smoke stages spend their time.
ci: build vet cross lint test test-race fuzz check-docs bench-smoke smoke-serve smoke-edge smoke-pull smoke-wal

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

bench-parallel:
	$(GO) test -bench=ClientParallelism -benchmem -benchtime=1x ./pkg/fedprophet

bench-conv:
	$(GO) test -bench=ConvBackends -benchmem -benchtime=2s -run '^$$' .

bench-json:
	$(GO) run ./cmd/benchconv -out BENCH_conv.json

bench-wire:
	$(GO) run ./cmd/benchwire -out BENCH_wire.json \
		-timestamp $$(date -u +%Y-%m-%dT%H:%M:%SZ)

bench-serve:
	GOMAXPROCS=4 $(GO) run ./cmd/benchserve -duration 5s -out BENCH_serve.json \
		-timestamp $$(date -u +%Y-%m-%dT%H:%M:%SZ)

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
