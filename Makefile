GO ?= go

# Pinned govulncheck version: install with
#   go install golang.org/x/vuln/cmd/govulncheck@v1.1.4
# The vulncheck target skips (with a notice) when the binary is not
# installed, so `make check` stays green on offline builders.
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test race fmt vet lint lint-corpus vulncheck check bench bench-smoke bench-compare bench-compare-smoke explain-smoke chaos-smoke cluster-smoke trace-smoke parallel-race sched-race sched-soak resultpath-race prepared-race

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# fmt fails when any file (bench/ included) is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt: needs formatting:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet -all ./...

# lint runs nimble-lint, the repo's own invariant checkers (span
# lifecycle, operator close discipline, guarded-by annotations,
# lock-order cycles). See internal/analysis and
# `go run ./cmd/nimble-lint -list`.
lint:
	$(GO) run ./cmd/nimble-lint ./...

vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || exit 1; \
	else \
		echo "vulncheck: govulncheck not installed; skipping" ; \
		echo "vulncheck: install with: go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)" ; \
	fi

race:
	$(GO) test -race ./...

# run-named is `go test FLAGS -run 'A|B|…' PACKAGE` that first checks, with
# `go test -list`, that every alternative of the pattern still selects a
# test in the package: the steps below pick tests by name, and one name
# renamed or deleted must not drop out of its race step while the others
# keep the step green. $(1) flags, $(2) pattern, $(3) package.
define run-named
	@for alt in $(subst |, ,$(2)); do \
		listed=$$($(GO) test $(1) -list "$$alt" $(3) 2>&1) || { echo "$$listed"; exit 1; }; \
		if ! echo "$$listed" | grep -qv '^ok'; then \
			echo "$@: -run alternative $$alt selects no test in $(3)"; exit 1; \
		fi; \
	done
	$(GO) test $(1) -run '$(2)' $(3)
endef

# lint-corpus runs, under the race detector, every analyzer's corpus
# test by name, so an analyzer dropped from the roster or a renamed test
# fails the step instead of leaving it green. Each runs its whole corpus
# file (lockorder's includes a mutex re-acquired one call away).
lint-corpus:
	$(call run-named,-race -count=1 -v,TestSpanFinish|TestOpClose|TestGuardedBy|TestLockOrder,./internal/analysis)

# parallel-race exercises the intra-query parallel execution machinery
# under the race detector: the serial-vs-parallel differential suite
# (small families that hold every gate, wide ones that fan out), the
# same-EXPLAIN-tree-at-every-degree check and the view-join equivalence,
# the hash-join (every degree, keyed, natural and bound) and parallel
# sort unit, property and fuzz seeds, both at their committed gates and
# one input short of them, the matcher against its list-based reference
# and the indexed leaf against the walk (fuzz seeds), the indexed sources
# under chaos, under concurrent Replace/Put (ten rounds) and behind
# ELEMENT_AS/CONSTRUCT, the planner's join-key and bind-join recognition,
# and the concurrent storm through the cluster front end under chaos
# faults (dead + slow sources) asserting byte-identical results — no lost
# or duplicated tuples.
parallel-race:
	$(call run-named,-race -count=1,TestParallelEquivalence|TestUnfoldingEquivalence_ViewJoin|TestExplainParallelPlanShape|TestExplainSameTree|TestIndexedSourceUnderChaos|TestSharedSnapshot|TestAggregatePredicateWaits,./internal/core)
	$(call run-named,-race -count=10,TestStaticReplaceRaces|TestDirectoryPutRaces,./internal/core)
	$(call run-named,-race -count=1,TestHashJoin|TestBindJoin|TestParallelClose|TestStableSort|FuzzPartition|TestHashJoinGateBoundary|TestStableSortGateBoundary|TestMatcherEqualsReference|TestIndexedMatch|FuzzMatchPattern,./internal/algebra)
	$(call run-named,-race -count=1,TestPlanJoinKey|TestPlanBindJoin|TestPlanNonKeyPredicates|TestPlanThreeSourceChain,./internal/opt)
	$(call run-named,-race -count=1,TestParallelStormUnderChaos,.)

# sched-race exercises the shared worker scheduler under the race
# detector: the unit/property battery (acquire, serial floor, the batch
# last-slot rule, idempotent and panic-path release, a concurrent storm)
# plus the grant fuzz seeds; the join's grant held from its first Next
# to Close; the scheduler differential suite (budgets 1/2/8, byte-identical
# to serial) with the golden budget-workers EXPLAIN and the check that
# queries under every gate hold no slot; and the mixed-class storm through
# the cluster front end, where a join past its gate takes workers beside
# small queries that take none, asserting granted <= budget at every
# sampled instant and full drain (no leaked slots or workers) on
# completion, cancellation, and fault paths.
sched-race:
	$(GO) test -race -count=1 ./internal/sched
	$(call run-named,-race -count=1,TestHashJoinGrantLivesWithThePool|TestParallelCloseIdempotent,./internal/algebra)
	$(call run-named,-race -count=1,TestSchedulerGrantEquivalence|TestExplainGoldenSchedulerBudgetWorkers|TestSmallQueriesHoldNoWorkerSlots,./internal/core)
	$(call run-named,-race -count=1,TestSchedStormBudgets,.)

# resultpath-race exercises the no-copy result path under the race
# detector: the serializer's escaper against encoding/xml on the fuzz
# seed corpus and the reference writer, a document whose root is written
# last against WriteNode, the no-copy <results> root against Document()
# byte for byte, and eight goroutines serving one cached answer in place
# while a ninth copies and edits it — any write to a node shared with the
# cache is a reported race. An answer written into the response buffer
# is held to the materialized one over HTTP (empty, partial, escaped,
# spliced, nested, union, failing on a late row in CONSTRUCT or in a
# WHERE predicate, filtered by a chain of Selects the source cannot run,
# one a correlated aggregate; sorted by the mediator, also failing on a
# late row, with a nested query, and with keys tying across two
# rewrites, which keep the held order), and reports to
# the Document copy they were appended to. The compiled CONSTRUCT
# program, the one evaluator of a template, is held to one reference by
# a property per sink over the same draws (and the fuzz seeds, which
# drive both sinks on each draw): the trees it builds deep-equal the reference's at every slab size, the bytes a
# streamed answer is written with are WriteChild of the reference's
# results byte for byte, compact and indented, a failed row writing
# nothing, and WriteChild of a built tree is what the byte sink writes;
# its slab-carved results do not alias one another, a tuple spliced from
# concurrent queries copies the source nodes it holds, and the byte
# sink's allocation pin (none per row) runs without the race
# detector. A pushed fragment bound
# from rows is held to binding from its XML export (table, and property
# over every arm of a database's SELECT),
# its fetch to one memo entry whose rendered export concurrent readers
# share, and its faults and simulated transport to the XML twin's —
# answers, reports, retries, breakers, outcomes and error text under a
# seeded chaos schedule whose sleeps and attempt deadlines run on one
# fake clock (ten rounds, so a dependence on host speed shows); a cell's
# export text (Result.Text) to its Stringify text over every column
# type, both insert paths and every arm of a SELECT (property).
# A single-table SELECT read in place is held to a reference that checks
# WHERE and reads the select list's columns row by row (property), an
# index-answered = to what Compare matches; eight range SELECTs to
# sorting a fresh index once among them, and a multi-row INSERT that
# fails on any row to appending none; an answer, the table's own rows
# read through a column map, to reading as it did, cells and texts, after
# later INSERTs (into the list's spare capacity, past it, several rows at
# once), also while they run; a Malformed cut of one to keeping its
# column map.
# An answer in its final order pulls one binding at a time in either
# sink (row k is written before binding k+1 is produced; an error on row
# k leaves k+1 produced, so a template error wins over the plan's on the
# next row), and Pull hands each on as produced; a fragment scan under a
# chain of Selects refills one tuple and writes what the materialized
# answer holds (ten rounds). A mediator-sorted answer past the sort's
# gate, of one rewrite or two, sorted by granted workers, built or
# written into a buffer, is the serial twin's bytes (ten rounds); a
# sorted answer reports the same error into a buffer as materialized, and
# only a sorted answer has a construct span. An explained or profiled
# answer over HTTP has the plain answer's rows and the spans of its kept
# trace. The pins on bytes per final-order row (a bare scan and one under
# a Select, streamed and materialized), bytes per sorted row written
# without a tree, allocations of a one-row answer in each sink, bytes and
# allocations per scanned SELECT, fragment scan allocations (from the
# export and from answers over an INT key, unfiltered and filtered) and
# the allocations of an answer's export run without the race detector.
# Cached answers: eight goroutines render one lens from cached nodes,
# cleaning functions are re-registered under running queries, and every
# change to what a name answers (materialize, refresh, drop, a schema
# definition, through the facade and over HTTP, two schema levels deep)
# reaches every cache of both layouts, whose keys ignore whitespace and
# whose metrics count them all.
resultpath-race:
	$(GO) test -race -run 'FuzzSerializeEscape|TestSerializeMatchesReference|TestBufferReuse|TestDocumentRootWrittenLast' -count=1 ./internal/xmlparse
	$(call run-named,-race -count=1,TestBuilderEqualsReference|TestProgramEqualsReference|FuzzConstruct,./internal/algebra)
	$(call run-named,-race -count=10,TestPullHandsBindingsAsProduced,./internal/algebra)
	$(call run-named,-count=1,TestProgramAllocatesNothingPerRow,./internal/algebra)
	$(call run-named,-race -count=1,TestView|TestBuilderSlabsDoNotAlias|TestTupleSpliceCopiesBoundNodes,./internal/core)
	$(call run-named,-race -count=10,TestRowFetchUnderChaosMatchesXMLTwin,./internal/core)
	$(call run-named,-race -count=10,TestStreamedAnswerPullsBindingsOneAtATime|TestStreamedRowWrittenBeforeNextBinding|TestStreamedSelectChainEqualsMaterialized|TestParallelSortedAnswerEqualsSerialTwin|TestParallelSortedUnionEqualsSerialTwin,./internal/core)
	$(call run-named,-race -count=1,TestSortedAnswerErrorsAreTheSameInBothSinks|TestFinalOrderTemplateErrorStopsThePlan|TestSortedConstructSpanFollowsTheSort,./internal/core)
	$(call run-named,-count=1,TestStreamedAnswerHoldsNoBindingPerRow|TestMaterializedAnswerHoldsNoBindingPerRow|TestSortedAnswerBuildsNoTree|TestOneRowAnswerAllocations,./internal/core)
	$(call run-named,-race -count=1,TestBindRowsEqualsExportReadBack|TestBindRowsEqualsExportReadBack_Property,./internal/opt)
	$(call run-named,-race -count=10,TestTransientScanRefillsOneTuple,./internal/opt)
	$(call run-named,-count=1,TestFragmentScanAllocations,./internal/opt)
	$(call run-named,-race -count=10,TestRowAnswerIsOneFetchAndRendersTheExport|TestConcurrentReadersShareOneRowAnswer,./internal/exec)
	$(call run-named,-race -count=1,TestNetworkSimRowsMatchDocuments|TestWrappersForwardRows,./internal/sources)
	$(call run-named,-count=1,TestViewExportSharesStoredText,./internal/sources)
	$(call run-named,-race -count=1,TestRowFaultsShareTheSchedule|TestMalformedViewKeepsItsColumnMap,./internal/chaos)
	$(call run-named,-race -count=1,TestIndexInListFindsWhatCompareMatches|TestResultTextIsStringify_Property,./internal/rdb)
	$(call run-named,-race -count=10,TestScanEqualsMaterializedPath|TestIndexEqFindsWhatCompareMatches|TestConcurrentRangeSelectsOnFreshIndex|TestInsertIsAllOrNothing|TestViewSurvivesLaterWrites,./internal/rdb)
	$(call run-named,-count=1,TestScanAllocatesOnlyTheResult,./internal/rdb)
	$(call run-named,-race -count=10,TestCachedValuesStayImmutable|TestQueryContentLength|TestStreamedAnswerEqualsMaterialized,./internal/server)
	$(call run-named,-race -count=1,TestReportsRenderAsTheDocumentCopy|TestReportsKeepThePlainRows|TestProfileIsThePlainQuerysTrace|TestSortedTiesKeepHeldOrder,./internal/server)
	$(call run-named,-race -count=1,TestAdminChangesReachEveryCache|TestCachingOnQueryEndpoint|TestAdminEndpoints|TestAdminDefineSchema,./internal/server)
	$(call run-named,-race -count=1,TestFacadeRenderLensConcurrent|TestFacadeRegisterFunctionsWhileQuerying|TestFacadeDropInvalidatesCache|TestFacadeCacheTTL|TestFacadeRefreshReachesCache|TestFacadeDefineSchemaReachesCache|TestFacadeWhitespaceVariantsShareAnEntry,.)
	$(call run-named,-race -count=1,TestInvalidateReachesDependents|TestSharedCacheHitTakesNoSlot|TestCacheMetricsCoverEveryCache|TestPerInstanceCacheHits,./internal/cluster)
	$(call run-named,-race -count=1,TestDependents,./internal/catalog)
	$(call run-named,-race -count=1,TestOnChangeHearsEveryMutator,./internal/matview)

# prepared-race exercises prepared queries under the race detector: the
# shape key and parameter rule, a prepared query bound to its own and to
# respelled literals against Parse (fuzz seeds), and Rebind copying only
# what it changes; rdb's statement cache against ParseSQL (fuzz seeds),
# bound statements answering as parsed ones (only literals and LIKE
# patterns rebind; a select-list alias is a parse error), and a SELECT
# cached before its table is created resolving against it, columns
# reordered; fragment SQL that names table columns only, byte-identical
# under renamed variables and from a serial twin beside an engine; eight
# goroutines running two shapes with changing literals against a fresh
# engine's answers (ten rounds), eight streaming one shape through the
# CONSTRUCT program its entry compiled once, a shape answered materialized
# and then streamed compiling one program per indentation, a warm call
# that neither parses nor
# unfolds nor parses SQL, and the next call
# unfolding again after a view definition, a local store installed, a
# materialize, a TTL turning an entry stale, a refresh and a drop; a
# lens called with three values sharing one entry, single quotes escaped
# in lens values, and an answer read across Invalidate not stored;
# random predicates over sqlgen's whole output grammar compiled and run
# through rdb's statement cache; and every pushed predicate and ORDER BY
# answering as it does without pushdown (the seven TestPushed… tests:
# NULL, BOOL, DATE and nullable INT cells, ORDER BY, floats, division,
# + and the errors of conjuncts kept in the mediator, each over a table
# with and without indexes, and a leaf joined onto an earlier group,
# which takes no predicate that can fail), also as a property over random tables with
# NULL, BOOL, DATE and FLOAT cells, indexed or not, and predicates kept
# in the mediator before or after the pushed one, against the mediator's
# evaluator over the cells it binds.
prepared-race:
	$(call run-named,-race -count=1,FuzzPrepare|TestShapeKey|TestPrepareParams|TestRebindSharesWhatItDoesNotChange,./internal/xmlql)
	$(call run-named,-race -count=1,FuzzParseSQL|TestExecBindsPreparedSelect|TestPreparedSelectSurvivesTableChanges,./internal/rdb)
	$(call run-named,-race -count=1,TestCompiledPredicatesRunOnRDB_Property|TestPushedPredicatesAnswerAsTheMediator_Property|TestSQLDoesNotDependOnVariableNames,./internal/sqlgen)
	$(call run-named,-race -count=10,TestPreparedMatchesFreshEngineConcurrently|TestStreamedShapeCompilesItsProgramOnce|TestMaterializedShapeCompilesItsProgramOnce,./internal/core)
	$(call run-named,-race -count=1,TestWarmCallBindsWithoutUnfoldOrParse|TestPreparedFollowsTheCatalog|TestTwinEnginesSendTheSameSQL|TestPushedCellsAnswerAsTheMediator|TestPushedOrderAnswersAsTheMediator|TestPushedFloatsAnswerAsTheMediator|TestPushedDivisionAnswersAsTheMediator|TestPushedPlusAnswersAsTheMediator|TestPushedErrorsAnswerAsTheMediator|TestPushedJoinedLeafAnswersAsTheMediator,./internal/core)
	$(call run-named,-race -count=1,TestPreparedQueriesFollowTheStore,./internal/matview)
	$(call run-named,-race -count=1,TestBindEscapesSingleQuotes,./internal/lens)
	$(call run-named,-race -count=1,TestLensValuesShareOnePreparedEntry,.)
	$(call run-named,-race -count=10,TestAnswerReadBeforeInvalidateIsNotStored,./internal/cluster)

# sched-soak runs the extended scheduler workload behind the soak tag:
# 64 concurrent mixed-class queries per budget on a fixed seed, one shape
# a join past its gate, each answer byte-identical to a serial twin,
# workers spawned, and a fully drained budget afterwards.
sched-soak:
	$(call run-named,-tags soak -race -count=1 -v,TestSchedSoakMixedClasses,.)

# check is the full gate: gofmt, go vet, the nimble-lint invariant suite,
# the plain tests (the allocation pins only run without the race
# detector), the race-enabled tests (includes the dedicated concurrency
# tests in internal/obs and internal/server), the parallel-execution,
# scheduler, result-path and prepared-query race suites, and a
# vulnerability scan when the tooling is available.
check: fmt vet lint test race parallel-race sched-race resultpath-race prepared-race vulncheck

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke builds the repository benchmark (bench/ is a module of its
# own, which `go build ./...` does not see), runs its unit tests, and
# drives two seconds each of fed-join (its answers sorted by the mediator,
# so materialized) and of bulk-export and point-pushdown (serialized while
# built); each exits non-zero when any answer's digest differs from the
# serial twin's.
bench-smoke:
	cd bench && $(GO) test ./...
	bash bench/run.sh --workload fed-join --seed 7 --seconds 2 --trace 0
	bash bench/run.sh --workload bulk-export --seed 7 --seconds 2 --trace 0
	bash bench/run.sh --workload point-pushdown --seed 7 --seconds 2 --trace 0

# bench-compare measures the working tree against PARENT with the
# repository benchmark and writes BENCH_$(ISSUE).json: ten alternating
# pairs on seed 7 and on the held-out seed for the claimed workload
# (CLAIM=workload:metric), three pairs for the others, the 9/10 +
# inter-quartile rule, BENCHMARK.json's bounds, and a traced pass of
# every workload on seed 7 (of the claimed one on every seed). Both sides
# build under .bench_build/; bench/ is not touched.
#   make bench-compare PARENT=HEAD~1 ISSUE=16 CLAIM=fed-join:qps
# CLAIM_TEXT records the claim in the issue's words, NOTE a free-text
# note (the tool takes -note repeatedly when run directly).
PARENT ?=
ISSUE ?= 0
CLAIM ?=
CLAIM_TEXT ?=
NOTE ?=
bench-compare:
	$(GO) run ./cmd/bench-compare -parent '$(PARENT)' -issue $(ISSUE) -claim '$(CLAIM)' \
		$(if $(CLAIM_TEXT),-claim-text '$(CLAIM_TEXT)') $(if $(NOTE),-note '$(NOTE)')

# bench-compare-smoke drives the same tool end to end at one pair of one
# second per workload against HEAD itself, writing under .bench_build/:
# it proves the protocol runs, not that anything got faster.
bench-compare-smoke:
	$(GO) run ./cmd/bench-compare -parent HEAD -claim fed-join:qps -pairs 1 -guard-pairs 1 -seconds 1 \
		-report-only -out .bench_build/BENCH_smoke.json

# chaos-smoke runs the extended fault-injection soak (1000 mixed
# queries per seed under a seeded fault schedule, each seed replayed
# twice with byte-identical-report verification) plus the short soak.
# See DESIGN.md §8 for the methodology.
chaos-smoke:
	$(GO) test -tags soak -run 'TestChaosSoak' -count=1 -v .

# cluster-smoke runs the cluster front end end to end under every
# routing policy: an instance whose source faults stays in rotation and
# answers flagged partial with zero failed requests, and a drained
# instance leaves gracefully. Plus the -race storm over queries, drains,
# restores, and inspector reads. Both run by name (run-named), so a
# renamed or deleted smoke test fails the step.
cluster-smoke:
	$(call run-named,-count=1 -v,TestClusterSmoke,./internal/cluster)
	$(call run-named,-race -count=1,TestClusterStorm,./internal/cluster)

# trace-smoke drives a chaos-faulted query through the full stack
# (HTTP front end -> cluster -> engine -> per-attempt fetch) and
# asserts one tail-kept trace links every tier under a single TraceID,
# that the id appears on the slow log, structured log lines, exporter
# batches, and histogram exemplars, that a fixed TraceSeed keeps a
# deterministic trace set, and that /debug/traces JSON, the XML trace
# format, an OTLP file export and a ?profile=1 body match their goldens.
# Then, under the race detector, a span handle kept past its arena's
# recycling writes nothing into the trace that reuses it while other
# traces are written, and a copy read before stays intact; and the
# -race pass over internal/obs. Writing a trace into a recycled arena
# allocating nothing is pinned without the race detector.
trace-smoke:
	$(call run-named,-count=1 -v,TestTraceSmokeEndToEnd|TestKeptTraceSetDeterministic|TestTraceRenderingsMatchGoldens,.)
	$(call run-named,-race -count=10,TestStaleHandlesWriteNothing,./internal/obs)
	$(call run-named,-count=1,TestRecycledArenaAllocatesNothing,./internal/obs)
	$(GO) test -race -count=1 ./internal/obs

# explain-smoke runs one federated two-source query through
# `nimble-cli -explain` and asserts the EXPLAIN ANALYZE operator tree
# renders with the expected nodes (join, pattern match, the pushed SQL on
# its fragment scan, per-source fetch attribution).
explain-smoke:
	@out=$$($(GO) run ./cmd/nimble-cli -customers 20 -explain \
		'WHERE <cust><cid>$$i</cid><who>$$w</who></cust> IN "customers", <ticket><cust>$$i</cust><issue>$$s</issue></ticket> IN "tickets" CONSTRUCT <r><who>$$w</who><issue>$$s</issue></r>'); \
	for want in 'HashJoin' 'Match \[fetch tickets' 'FuncScan \[pushdown crmdb: SELECT' 'Fetch \[crmdb' 'Fetch \[tickets' 'Query \[rewrites=' 'time=' 'out='; do \
		echo "$$out" | grep -q "$$want" || { echo "explain-smoke: missing $$want in output:"; echo "$$out"; exit 1; }; \
	done; \
	echo "explain-smoke: OK"
