# Build, verify and benchmark the FedProphet reproduction.
#
#   make ci      - everything the tier-1 gate runs: build, vet, cross, lint,
#                  test, race, codec fuzz pass, docs links, bench-smoke
#   make bench-smoke    - the repository's one benchmark (bench/, declared in
#                         BENCHMARK.json; see bench/README.md) at smoke sizes:
#                         every workload and output check in <5 s, plus the
#                         nested bench module's own tests (in ci)
#   make bench   - paper tables/figures as go benchmarks with -benchmem
#   make check-docs     - fail on dead relative links in README/docs
#   make cross   - cross-build for arm64 and vet tensor/nn/quant there: the
#                  portable GEMM path that every platform but amd64 runs, and
#                  the codec kernels whose bytes must not depend on the
#                  platform (in ci)
#   make lint    - fplint: the repo's own analyzers (atomicfield, lockorder,
#                  determinism, sentinelerr, poolleak, unusedexport) over the
#                  whole module and the nested bench module, as one program
#   make cover   - tests with coverage summary

GO ?= go

.PHONY: all build vet cross lint test test-race fuzz check-docs bench-smoke ci bench cover clean

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
# respect the declared hierarchy, deterministic packages stay clock-, env- and
# map-order-free, sentinel errors are matched with errors.Is, pooled buffers
# are always returned, and no internal/ export outlives its last non-test
# caller. Run from bench/, the pattern fedprophet/... loads the root module
# and the nested bench module as one program, so the benchmark's uses count.
# Built from this module with the standard library only — pinned, offline, no
# tool downloads. Also runnable (without the whole-program unusedexport pass)
# as `go vet -vettool=$(CURDIR)/bin/fplint ./...`.
lint:
	$(GO) build -o bin/fplint ./cmd/fplint
	cd bench && ../bin/fplint fedprophet/...

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

# lint runs right after vet: invariant violations fail the build before the
# minutes-long test/race/benchmark stages spend their time.
ci: build vet cross lint test test-race fuzz check-docs bench-smoke

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
