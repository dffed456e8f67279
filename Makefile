# CMI — build, test and experiment targets.

GO ?= go

.PHONY: all check fmt build vet test race fuzz-smoke bench bench-smoke bench-test crash chaos-e2e chaos-disk fscheck cover docs examples experiments clean

all: fmt build vet test race fuzz-smoke docs fscheck bench-smoke bench-test crash chaos-e2e chaos-disk

# The one gate to run before pushing: static checks plus the race-enabled
# test suite, the docs-consistency guard and the storage-seam gate. The
# wire package — the binary framing under every durable journal — is
# vetted and raced explicitly so a narrowed ./... invocation can never
# silently skip it.
check: fmt vet race docs fscheck
	$(GO) vet ./internal/wire/
	$(GO) test -race ./internal/wire/

# Storage-seam gate: the durable-log packages must not open, rename,
# rewrite or fsync files through the os package directly — everything
# goes through internal/fs, so the fault-injecting filesystem sees the
# same code paths production runs. The second invocation is the negative
# self-test: over the known-bad corpus the gate MUST fail, proving it
# still detects the bypasses it exists to catch.
fscheck:
	$(GO) run ./tools/fscheck ./internal/delivery ./internal/enact ./internal/federation ./internal/system ./internal/fsck
	@echo "fscheck: negative self-test (gate must flag tools/fscheck/testdata)"
	@if $(GO) run ./tools/fscheck ./tools/fscheck/testdata >/dev/null 2>&1; then \
		echo "fscheck: negative self-test FAILED: known-bad corpus passed"; exit 1; \
	else \
		echo "fscheck: negative self-test ok"; \
	fi

# Format gate: gofmt must have nothing to rewrite anywhere in the tree
# (bench/ included).
fmt:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Bounded fuzzing: each fuzz target runs for 5 s past its checked-in
# seed corpus (testdata/fuzz/, which plain `go test` already replays).
# A failing input is written to that corpus, so it fails `go test` until
# mended.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzNotificationJSON$$' -fuzztime 5s ./internal/delivery/
	$(GO) test -run '^$$' -fuzz '^FuzzListJSON$$' -fuzztime 5s ./internal/federation/

bench:
	$(GO) test -bench . -benchmem ./...

# Compile-and-run smoke: every paper-figure arm of cmibench (its output
# discarded) plus the journal-append, queue-load, queue-first-read,
# notification-JSON and SSE-frame benchmarks at one iteration each.
# Every line is its own recipe command, so a non-zero exit fails the
# target.
bench-smoke:
	$(GO) run ./cmd/cmibench -exp all >/dev/null
	$(GO) test -run '^$$' -bench 'BenchmarkDeliveryFanout' -benchtime=1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkWALAppend' -benchtime=1x -benchmem ./internal/enact/
	$(GO) test -run '^$$' -bench 'BenchmarkQueue(Load|FirstRead)|BenchmarkNotificationsJSON' -benchtime=1x -benchmem ./internal/delivery/
	$(GO) test -run '^$$' -bench 'BenchmarkFrameWriteEvents' -benchtime=1x -benchmem ./internal/stream/
	$(GO) test -run '^$$' -bench 'BenchmarkSpoolPush' -benchtime=1x -benchmem ./internal/federation/

# The pipeline benchmark (bench/, its own module, outside ./...) drives
# real cmid children and internal/ packages directly; its smoke test
# runs every workload for a fraction of a second with all output checks
# on, so an internal/ API or behaviour change that breaks the benchmark
# fails here and not in the driver.
bench-test:
	cd bench && $(GO) test ./...

# Crash-injection harness: SIGKILL a randomized enactment workload at
# arbitrary journal positions, recover, and check the invariants
# (short randomized budget; raise CMI_CRASH_ROUNDS for a longer soak).
crash:
	CMI_CRASH_ROUNDS=$${CMI_CRASH_ROUNDS:-5} $(GO) test -count=1 -run '^TestCrashRecovery$$' -v ./internal/system/

# Black-box chaos oracle: compile real cmid/cmictl binaries, run the
# checked-in scenario specs (test/e2e/scenarios/*.json) with seeded
# SIGKILL / partition / latency schedules, and verify the global
# invariants after quiesce. Override the schedule with
# CMI_CHAOS_SEED / CMI_CHAOS_ACTIONS to reproduce or extend a run.
chaos-e2e:
	$(GO) test -count=1 -run '^TestChaosScenarios$$' -v -timeout 15m ./test/e2e/

# Disk-fault chaos: the scenarios carrying a diskFaults block run
# against real cmid/cmictl binaries with the seeded fault filesystem
# armed (-fs-faults) and assert the domain either serves correct state
# or fails loudly with a state dir `cmictl fsck` can diagnose and
# repair. CMI_DISK_SWEEP widens every scenario into a multi-seed sweep
# (default 10 seeds per scenario).
chaos-disk:
	CMI_DISK_SWEEP=$${CMI_DISK_SWEEP:-10} $(GO) test -count=1 -run '^TestDiskFaultScenarios$$' -v -timeout 15m ./test/e2e/

cover:
	$(GO) test -cover ./...

# Docs-consistency guards: every registered cmi_* metric must be
# documented in docs/OPERATIONS.md, every federation mux route in
# docs/API.md, and every exported identifier of the delivery,
# federation and stream packages must carry a doc comment.
docs:
	$(GO) test -run 'TestMetricsDocumented|TestAPIDocumented' .
	$(GO) run ./tools/doccheck ./internal/delivery ./internal/federation ./internal/stream

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/epidemic
	$(GO) run ./examples/taskforce
	$(GO) run ./examples/federation
	$(GO) run ./examples/darpa
	$(GO) run ./examples/enterprise

# Regenerate every figure and reported number (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/cmibench -exp all

clean:
	$(GO) clean ./...
