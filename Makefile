GO ?= go

.PHONY: build test race fuzz bench bench-baseline bench-compare fmt vet linkcheck docs loc loadtest chaostest crashtest tracecheck

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
	$(GO) test -run '^$$' -fuzz '^FuzzRefine$$' -fuzztime $(FUZZTIME) ./internal/autom
	$(GO) test -run '^$$' -fuzz '^FuzzSBPVariant$$' -fuzztime $(FUZZTIME) ./internal/sbp
	$(GO) test -run '^$$' -fuzz '^FuzzSubmit$$' -fuzztime $(FUZZTIME) ./internal/httpapi
	$(GO) test -run '^$$' -fuzz '^FuzzVerifyLitPerm$$' -fuzztime $(FUZZTIME) ./internal/symgraph
	$(GO) test -run '^$$' -fuzz '^FuzzEdgeList$$' -fuzztime $(FUZZTIME) ./internal/graph

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# loc prints the production size that simplicity changes cite: non-test
# Go lines outside e2ebench/ (a separate module) and .bench_build/.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './e2ebench/*' \
		-not -path './.bench_build/*' -not -path './.git/*' -print0 | xargs -0 cat | wc -l

# loadtest is the admission-control smoke: 16 concurrent clients against
# an in-process daemon whose workers are parked must get exactly 6 of 120
# submissions accepted and every other answered 429 queue_full with the
# error envelope and Retry-After; a daemon with room must accept all.
loadtest:
	$(GO) test -count=1 -run '^TestConcurrentAdmission$$' ./internal/httpapi/

# tracecheck is the observability audit: real solves through an
# in-process daemon must expose well-formed span trees (single root,
# unique ids, children nested in parents, phases that account for the
# job's wall time), a cache hit's included; plus the flight-recorder
# listing, the 404 envelope for unknown jobs, the phase histograms on
# /metrics, and, in the service, per-worker spans under a parallel solve
# and traces kept apart across concurrent jobs.
tracecheck:
	$(GO) test -count=1 -run '^(TestTrace.*|TestWireGolden|TestParallelSolveTraceShape|TestConcurrentJobsTraceIsolation)$$' ./internal/httpapi/ ./internal/service/

# chaostest is the chaos drill: an in-process daemon whose result cache
# and job journal each fail every 7th disk write (torn) and whose solver
# panics every 5th call must keep the API contract, isolate every panic
# to its own job, and reattach both components once the disk heals.
chaostest:
	$(GO) test -race -count=1 -run '^TestChaosOverHTTP$$' ./internal/httpapi/

# crashtest is the fault-tolerance acceptance gate: the SIGKILL-and-replay
# drill against a real gcolord binary (journal replay under original ids,
# no duplicate solver runs for isomorphic entries, graceful drain), plus
# the service-level fault suites (panic isolation, degraded journal and
# cache backend, Wait/Close races, CancelAll on queued jobs), the
# fault-injection harness's own tests and the chaos drill — all under the
# race detector.
crashtest:
	$(GO) test -race -count=1 -run 'TestCrashRecoveryReplaysJournal|TestDrainRejectsSubmissions' ./cmd/gcolord/
	$(GO) test -race -count=1 -run 'Panic|Journal|Resilient|CancelAll|CloseRace|Fault|Inject|Delete|WALUpgrade' ./internal/service/ ./internal/faultinject/ ./internal/store/
	$(GO) test -race -count=1 -run '^TestChaosOverHTTP$$' ./internal/httpapi/

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
