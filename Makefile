GO ?= go
FUZZTIME ?= 10s
BENCHCOUNT ?= 5
BENCHTIME ?= 1s

.PHONY: all verify vet lint lint-fix-check race fuzz bench-selftest bench-micro

all: verify vet lint

# Tier-1 gate: everything builds, every test passes.
verify:
	$(GO) build ./...
	$(GO) test ./...

# Source-level invariant gate: go vet, formatting, and the four
# xmlsec-vet passes (viewbypass, privconst, obslabel, ctxflow) under the
# committed baseline — see DESIGN.md S22 for the axiom mapping and S11
# for the lock discipline the race tests check instead.
vet:
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) run ./cmd/xmlsec-vet -baseline vet-baseline.json

# Policy-level analysis: the static policy analyzer's self-check on the
# paper's 12-rule policy (must report zero findings and exit 0).
lint:
	$(GO) run ./cmd/xmlsec-lint -paper

# Repair-engine gate: generate seeded faulty corpora for every scenario
# shape, apply xmlsec-lint -fix -write, and fail if a re-lint still sees a
# finding. The faulty and repaired reports are left in lint-fix/ so CI can
# upload them as artifacts.
lint-fix-check:
	@rm -rf lint-fix && mkdir -p lint-fix
	@set -e; for shape in acl rbac rebac hospital; do \
		echo "lint-fix-check: $$shape"; \
		$(GO) run ./cmd/xmlsec-lint -scenario $$shape -rules 200 -faults 6 -seed 42 \
			-emit lint-fix/$$shape.snapshot -json > lint-fix/$$shape.faulty.json || true; \
		$(GO) run ./cmd/xmlsec-lint -json -fix -write lint-fix/$$shape.snapshot \
			> lint-fix/$$shape.repairs.json || { echo "$$shape: -fix -write failed"; exit 1; }; \
		$(GO) run ./cmd/xmlsec-lint lint-fix/$$shape.snapshot \
			|| { echo "$$shape: findings survived -fix -write"; exit 1; }; \
	done

# Concurrency gate: the full suite under the race detector, including the
# core concurrent-session stress test.
race:
	$(GO) test -race ./...

# End-to-end benchmark self-test. _e2ebench is a module of its own, so the
# root go test ./... never builds it; this keeps a core API change from
# breaking the benchmark unnoticed.
bench-selftest:
	cd _e2ebench && $(GO) test ./...

# Hot-kernel micro-benchmarks (document clone, a doctor's view serialized
# as XML, a patient's and a doctor's view serialized from the source
# through the permission filter, the two mechanisms that compute axiom 14
# — a cold fleet's shared-scan evaluation, one Select per rule, and the
# per-node rule matcher with the write-side permission-cell patch built on
# it, NodeEvaluator.Rescore — the parallel permission-filtered read, a
# session's read after a write, a session's applied and refused write
# after another session's publish, one multi-op Apply, one AddUser commit
# at 1k and 8k users) with allocation counts; run on two
# commits for before/after tables, e.g. with benchstat. CI runs them once
# (BENCHCOUNT=1 BENCHTIME=1x) so they cannot rot.
bench-micro:
	$(GO) test -run '^$$' -bench '^BenchmarkClone$$' -benchmem -count $(BENCHCOUNT) -benchtime $(BENCHTIME) ./internal/xmltree
	$(GO) test -run '^$$' -bench '^BenchmarkSerialize$$' -benchmem -count $(BENCHCOUNT) -benchtime $(BENCHTIME) ./internal/view
	$(GO) test -run '^$$' -bench '^BenchmarkWriteFiltered$$' -benchmem -count $(BENCHCOUNT) -benchtime $(BENCHTIME) ./internal/view
	$(GO) test -run '^$$' -bench '^BenchmarkNodeMatcherMatch$$' -benchmem -count $(BENCHCOUNT) -benchtime $(BENCHTIME) ./internal/xpath
	$(GO) test -run '^$$' -bench '^BenchmarkEvaluateShared$$' -benchmem -count $(BENCHCOUNT) -benchtime $(BENCHTIME) ./internal/policy
	$(GO) test -run '^$$' -bench '^BenchmarkRescore$$' -benchmem -count $(BENCHCOUNT) -benchtime $(BENCHTIME) ./internal/policy
	$(GO) test -run '^$$' -bench '^BenchmarkForPermsSelect$$' -benchmem -count $(BENCHCOUNT) -benchtime $(BENCHTIME) ./internal/qfilter
	$(GO) test -run '^$$' -bench '^BenchmarkWarmReadAfterWrite$$' -benchmem -count $(BENCHCOUNT) -benchtime $(BENCHTIME) ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkWriteAfterPublish$$' -benchmem -count $(BENCHCOUNT) -benchtime $(BENCHTIME) ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkMultiOpApply$$' -benchmem -count $(BENCHCOUNT) -benchtime $(BENCHTIME) ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkAddUser$$' -benchmem -count $(BENCHCOUNT) -benchtime $(BENCHTIME) ./internal/core

# Bounded fuzzing of the parser targets (XPath, XUpdate, Datalog, XSLT
# stylesheets, storage snapshots, the journal that recovery reads) and the incremental-maintenance differential
# target (permissions patched by NodeEvaluator over the touched subtree
# roots against a fresh Evaluate) from their seed corpora, plus the clone-independence targets over
# random mutator sequences (documents, and subject hierarchies against a
# naive two-map reference), the serializer against its node-at-a-time
# oracle, the filtered serializer and copy against the materialized view,
# and the secured-write equivalence target (filtered selection on the
# source vs selection on the view).
fuzz:
	$(GO) test ./internal/xpath -fuzz FuzzCompile -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/xupdate -fuzz FuzzParseModifications -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/datalog -fuzz FuzzParse -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/view -fuzz FuzzIncrementalView -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/policyanalysis -fuzz FuzzRepair -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/xmltree -fuzz FuzzCloneMutate -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/subject -fuzz FuzzHierarchyClone -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/xmltree -fuzz FuzzSerialize -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/qfilter -fuzz FuzzFilteredRender -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/access -fuzz FuzzFilteredWrite -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/xslt -fuzz FuzzParseStylesheet -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/storage -fuzz FuzzRead -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/journal -fuzz FuzzJournalRead -fuzztime $(FUZZTIME) -run '^$$'
