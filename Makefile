GO ?= go

.PHONY: build test race fuzz bench bench-baseline bench-compare fmt vet linkcheck docs loadtest chaostest crashtest tracecheck sbpdata sbpdata-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz runs each native fuzz target briefly against the committed seed
# corpora (the CI smoke configuration; raise FUZZTIME for a longer hunt).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSATSolve$$' -fuzztime $(FUZZTIME) ./internal/pbsolver
	$(GO) test -run '^$$' -fuzz '^FuzzCanonicalForm$$' -fuzztime $(FUZZTIME) ./internal/autom
	$(GO) test -run '^$$' -fuzz '^FuzzSBPVariant$$' -fuzztime $(FUZZTIME) ./internal/sbp

# sbpdata regenerates the embedded canonizing-set data consumed by the
# canonset SBP variant; sbpdata-check regenerates to memory and fails on
# any diff against the committed copy (the CI staleness gate). Generation
# is deterministic, so a clean tree stays clean.
sbpdata:
	$(GO) run ./cmd/sbpgen

sbpdata-check:
	$(GO) run ./cmd/sbpgen -check

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# loadtest is the admission-control smoke: loadgen drives an in-process
# gcolord handler through an overload scenario (must shed load with
# enveloped 429s and Retry-After) and a light scenario (must accept
# everything). Exits nonzero if either contract breaks.
loadtest:
	$(GO) run ./cmd/loadgen -selftest

# tracecheck is the observability audit: loadgen drives real solves
# through an in-process daemon and requires every completed job to expose
# a well-formed span tree (single root, unique ids, children nested in
# parents) whose phases account for the job's wall time — including
# per-worker spans on a parallel solve, the phase histograms on /metrics,
# the flight-recorder listing, and the 404 envelope for unknown jobs.
tracecheck:
	$(GO) run ./cmd/loadgen -tracecheck

# chaostest drives the self-contained chaos drill: an in-process daemon
# with injected store write faults (including torn writes) and periodic
# solver panics must keep the API contract, isolate every panic to its
# own job, and still be serving after the disk "heals".
chaostest:
	$(GO) run ./cmd/loadgen -chaos

# crashtest is the fault-tolerance acceptance gate: the SIGKILL-and-replay
# drill against a real gcolord binary (journal replay under original ids,
# no duplicate solver runs for isomorphic entries, graceful drain), plus
# the service-level fault suites (panic isolation, degraded journal and
# cache backend, Wait/Close races, CancelAll on queued jobs) and the
# fault-injection harness's own tests — all under the race detector.
crashtest:
	$(GO) test -race -count=1 -run 'TestCrashRecoveryReplaysJournal|TestDrainRejectsSubmissions' ./cmd/gcolord/
	$(GO) test -race -count=1 -run 'Panic|Journal|Resilient|CancelAll|CloseRace|Fault|Inject|Delete|WALUpgrade' ./internal/service/ ./internal/faultinject/ ./internal/store/
	$(GO) run ./cmd/loadgen -chaos

# linkcheck verifies every intra-repo Markdown link and heading anchor
# resolves (external URLs are not fetched; the job stays hermetic).
linkcheck:
	$(GO) run ./cmd/linkcheck

# docs is the documentation gate CI runs: link integrity plus the
# vet/gofmt hygiene of everything the docs reference.
docs: linkcheck vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi
	@echo docs gate OK

# bench runs the full suite once with allocation reporting (the CI smoke
# configuration, with timing output kept for eyeballing).
bench:
	$(GO) test -bench=. -benchmem -count=1 -benchtime=1x -run '^$$' .

# bench-baseline records the committed perf snapshot future PRs diff
# against (ns/op and allocs/op per benchmark). Run on an idle machine.
bench-baseline:
	$(GO) test -bench=. -benchmem -count=1 -benchtime=1x -run '^$$' . \
		| $(GO) run ./cmd/benchjson > BENCH_baseline.json
	@echo wrote BENCH_baseline.json

# bench-compare re-runs the suite and diffs the current snapshot against
# the committed baseline: BENCH_current.json holds the raw numbers,
# BENCH_compare.txt the per-benchmark table (ns/op, allocs/op, and custom
# metrics such as the canonical search's nodes/op). CI runs this on every
# PR and uploads both files as the bench-compare artifact.
bench-compare:
	$(GO) test -bench=. -benchmem -count=1 -benchtime=1x -run '^$$' . \
		| $(GO) run ./cmd/benchjson > BENCH_current.json
	$(GO) run ./cmd/benchjson -compare BENCH_baseline.json BENCH_current.json \
		| tee BENCH_compare.txt
