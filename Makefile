# Build, verify and benchmark the FedProphet reproduction.
#
#   make ci      - everything the tier-1 gate runs: build, vet, cross, lint,
#                  test, race, codec and kernel fuzz pass, docs links,
#                  bench-smoke
#   make bench-smoke    - the repository's one benchmark (bench/, declared in
#                         BENCHMARK.json; see bench/README.md) at smoke sizes:
#                         every workload and output check in <5 s, plus the
#                         nested bench module's own tests (in ci)
#   make check-docs     - fail on dead relative links in README/docs
#   make cross   - cross-build for arm64 and vet tensor/nn/quant there: the
#                  portable Go twins of the GEMM tile and the dense codec
#                  chunk that every platform but amd64 runs, whose bytes must
#                  not depend on the platform (in ci)
#   make lint    - fplint: the repo's own analyzers (atomicfield, lockorder,
#                  determinism, sentinelerr, poolleak, unusedexport) over the
#                  whole module and the nested bench module, as one program
#   make cover   - tests with coverage summary

GO ?= go

.PHONY: all build vet cross lint test test-race fuzz check-docs bench-smoke ci cover clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# internal/tensor (gemm_amd64.s) and internal/quant (kernel_amd64.s) each
# have one assembly file, checked by vet's asmdecl above and chosen by the
# one CPUID probe in internal/cpuid; every other platform runs their Go
# twins. Building the module and vetting tensor/nn/quant for arm64 — pure Go,
# offline, nothing is executed — makes the arm64 build and vet check those
# twins, so a break of that path cannot land unseen on an amd64 box; the
# codec twin's frames are a wire format.
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
# tool downloads.
lint:
	$(GO) build -o bin/fplint ./cmd/fplint
	cd bench && ../bin/fplint fedprophet/...

test:
	$(GO) test ./...

# The concurrency-bearing packages (tensor worker pool + scratch arena,
# parallel GEMM convolutions, client-parallel training, the HTTP transport
# with parallel commit folds and concurrent compressed/raw clients, the pooled
# streaming codec, client workers sharing one cascade stage feature set) under
# the race detector — plus the public transport surface, filtered to the tests
# that drive an edge behind an http.ServeMux tenant path and a buffered root
# over real HTTP, and two real methods through fl's round driver: internal/fl races the driver only with toy
# client steps, so jFAT's subtest of TestParallelMatchesSequential runs a
# method's client step on 3 workers, and FedProphet's runs its server passes
# (validation, stage feature map, perturbation collection) as eval batches
# split across the slot replicas at once (nn.Replicas), which only a real
# FedProphet round exercises (~20 s under -race together; the whole package
# takes over a minute, all eight methods alone ~50 s).
test-race:
	$(GO) test -race ./internal/tensor/... ./internal/nn/... ./internal/fl/... ./internal/fldist/... ./internal/quant/... ./internal/cascade/...
	$(GO) test -race -run 'EdgeAggregatorPublicSurface|ParamServerBufferedAggregation|ParallelMatchesSequential/(jFAT|FedProphet)' ./pkg/fedprophet/

# The wire-codec fuzz targets, a short live pass each on top of their seed
# corpora: FuzzDecode (raw, dense, sparse and corrupted frames through the
# one parser, quant.StreamDecoder — Decode, DecodeAll and ApplyDelta keep
# returning ErrCodec instead of panicking or over-allocating, agree with each
# other value for value, and accepted frames re-encode canonically),
# FuzzQuantizeMatchesReference (arbitrary chunks — the dense chunk kernel
# stays bit-identical to its math.Round / bit-cursor references on both
# paths, the AVX2 kernel and its Go twin) and FuzzErrorFedMatchesThreePasses
# (arbitrary vectors and carries — the fused error-fed encode writes the
# frame, deq and residual of the separate add, encode and fold passes, and
# ApplyDelta the same sums or the same failing index, on both paths),
# plus FuzzUpdateEnvelope (arbitrary POST /update bodies against a synchronous
# and a buffered server — the one push handler covers every push form: no
# panic, only 200/400/409, a finite model after every 200) and
# FuzzCodecHeader (arbitrary X-Fldist-Codec values, ;topk=K;delta=1;base=R
# included — no panic, base ≥ −1, an accepted codec's echo re-parses to
# itself) and FuzzWALAdmitReplay (one admission record — a raw, a dense or a
# delta-chain push's body, envelope header included, and a delta-chain
# push's logged base, of a valid buffered or synchronous WAL, whose
# segments the target concatenates in round order and splits back into
# per-round segment files at each meta record — mutated and CRC-resealed:
# recovery never panics, errors wrap ErrWAL, the replayed buffer and the
# commit forced from it stay finite) and FuzzWALCommitReplay (the commit
# record of the retained round an uncommitted quantized admission decodes
# against, the record that opens round 1's segment, mutated and
# CRC-resealed — the same invariants, with the base rebuilt from that
# record), plus
# FuzzConvKernelsMatchNaive (arbitrary conv geometries — unroll, scatter,
# forward GEMM and dW stay bit-equal to their naive references on the AVX2
# tile and the portable twin) and FuzzEvalEpilogueMatchesLayers (arbitrary
# channel counts, map sizes, bias/pool choices and raw float64 values — the
# fused eval-mode Conv→BN→ReLU[→MaxPool] run stays bit-equal to the
# layer-by-layer pass: output, mask, argmax and dX). ~27s; part of ci.
fuzz:
	$(GO) test ./internal/quant -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 5s
	$(GO) test ./internal/quant -run '^$$' -fuzz '^FuzzQuantizeMatchesReference$$' -fuzztime 4s
	$(GO) test ./internal/quant -run '^$$' -fuzz '^FuzzErrorFedMatchesThreePasses$$' -fuzztime 3s
	$(GO) test ./internal/fldist -run '^$$' -fuzz '^FuzzUpdateEnvelope$$' -fuzztime 3s
	$(GO) test ./internal/fldist -run '^$$' -fuzz '^FuzzCodecHeader$$' -fuzztime 2s
	$(GO) test ./internal/fldist -run '^$$' -fuzz '^FuzzWALAdmitReplay$$' -fuzztime 2s
	$(GO) test ./internal/fldist -run '^$$' -fuzz '^FuzzWALCommitReplay$$' -fuzztime 2s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzConvKernelsMatchNaive$$' -fuzztime 3s
	$(GO) test ./internal/nn -run '^$$' -fuzz '^FuzzEvalEpilogueMatchesLayers$$' -fuzztime 2s

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

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
