GO ?= go

.PHONY: all build test vet race bench bench-detect bench-diff bench-pipeline eval fuzz report adversary commute-agreement ci clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# go vet over the Go sources, then hjvet over the bundled HJ-lite
# examples: any diagnostic not allowlisted in examples/hj/vet_allow.txt
# fails the build (hjvet exits 6 when unsuppressed diagnostics fire).
vet:
	$(GO) vet ./...
	@for f in examples/hj/*.hj; do \
		echo "hjvet $$f"; \
		$(GO) run ./cmd/hjvet -allow examples/hj/vet_allow.txt $$f || exit 1; \
	done

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/obs

# Regenerate the detect-engine comparison: capture cost vs per-engine
# trace-replay analysis cost (time and allocs), as JSON.
bench-detect:
	$(GO) test -run '^$$' -bench BenchmarkDetectEngines -benchmem -benchtime 3x . \
		| awk -f scripts/benchjson.awk > BENCH_detect.json

# Regression gate: re-run the detect-engine benchmarks into a scratch
# file and fail if any benchmark/stage regressed more than 20% in ns/op
# against the committed BENCH_detect.json baseline — and, via
# -parallel-wins, that every both-jN stage in the fresh numbers beats
# its serial both stage within the noise floor.
bench-diff:
	$(GO) test -run '^$$' -bench BenchmarkDetectEngines -benchmem -benchtime 3x . \
		| awk -f scripts/benchjson.awk > BENCH_detect.new.json
	$(GO) run ./scripts/benchdiff -parallel-wins BENCH_detect.json BENCH_detect.new.json

# End-to-end repair benchmark (pipebench/, its own Go module): vet and
# unit-test it, then make a 3-second paper-suite run, which re-checks
# all 12 repaired programs against pipebench/expected/*.out and
# re-detects them race-free. Fails unless the run's JSON line reports
# "correct":true and "failed":0.
bench-pipeline:
	cd pipebench && $(GO) vet ./... && $(GO) test ./...
	@out=$$(bash pipebench/run.sh --workload paper-suite --seed 1 --seconds 3 --trace 0 | tail -n 1); \
	echo "$$out"; \
	case "$$out" in \
		*'"correct":true,'*'"failed":0,'*) ;; \
		*) echo "pipebench smoke run failed"; exit 1;; \
	esac

# Regenerate the archived evaluation output (all paper tables, figures,
# and studies). The full figure-16 inputs take a few minutes; lower
# -runs/-scale for a quick spin.
eval:
	$(GO) run ./cmd/hjbench -all -runs 3 > testdata/evaluation_output.txt

# Repair every bundled example with provenance (-explain) and event-log
# (-jsonl) capture, then render each run as a self-contained HTML report
# under reports/. CI runs this as the report smoke job and uploads the
# HTML as an artifact.
report:
	@mkdir -p reports
	@for f in examples/hj/*.hj; do \
		n=$$(basename $$f .hj); \
		echo "report $$f -> reports/$$n.html"; \
		$(GO) run ./cmd/hjrepair -quiet -vet -explain reports/$$n.explain.json \
			-jsonl reports/$$n.jsonl -o reports/$$n.fixed.hj $$f || exit 1; \
		$(GO) run ./cmd/hjreport -explain reports/$$n.explain.json \
			-jsonl reports/$$n.jsonl -o reports/$$n.html || exit 1; \
	done

# Short fuzz smoke: the CI budget; raise -fuzztime locally for real hunts.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=20s ./internal/lang/parser
	$(GO) test -fuzz=FuzzRepairRoundTrip -fuzztime=20s ./tdr

# Adversarial replay smoke: repair every bundled example with witness
# generation and K-schedule verification, writing the witness-bearing
# explain documents (JSON artifacts) under reports/. A repaired example
# that diverges under any adversarial schedule fails the build (exit 7).
# The first loop pins -strategy finish (the pre-strategy behavior); the
# second sweeps -strategy auto under K=16 adversarial schedules and
# archives the per-group strategy choices as reports/*.strategy.json.
adversary:
	@mkdir -p reports
	@for f in examples/hj/*.hj; do \
		n=$$(basename $$f .hj); \
		echo "adversary $$f -> reports/$$n.witness.json"; \
		$(GO) run ./cmd/hjrepair -quiet -witness -vet -strategy finish -sched-seed 1 \
			-explain reports/$$n.witness.json -o reports/$$n.fixed.hj $$f || exit 1; \
	done
	@for f in examples/hj/*.hj; do \
		n=$$(basename $$f .hj); \
		echo "adversary -strategy auto $$f -> reports/$$n.strategy.json"; \
		$(GO) run ./cmd/hjrepair -quiet -strategy auto -adversary 16 -sched-seed 1 \
			-explain reports/$$n.strategy.json -o reports/$$n.auto.hj $$f || exit 1; \
	done
	@out=$$($(GO) run ./cmd/hjrun -mode stress -sched-seed 1 examples/hj/counter.hj 2>&1); \
	case "$$out" in \
		*"exit status 7"*) echo "stress witnessed the racy counter (exit 7), as expected";; \
		*) echo "stress mode failed to witness the racy counter:"; echo "$$out"; exit 1;; \
	esac

# Static/semantic agreement gate for the commutativity analysis: every
# "commutes" verdict over the bundled examples and a 50-program progen
# corpus (Commute shapes enabled) must survive the semantic order
# probe — zero refuted verdicts — and the auto-strategy repair of the
# commute corpus must restore the serial elision's output.
commute-agreement:
	$(GO) test -race -run 'TestCommuteAgreement|TestCommuteCorpusRepairsEndToEnd' -v ./tdr
	$(GO) test -race -run 'TestCommute|TestProbe|TestRecognize' ./internal/analysis/commute ./internal/progen

ci: build vet race adversary commute-agreement

clean:
	$(GO) clean ./...
