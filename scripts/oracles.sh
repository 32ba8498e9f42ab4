#!/usr/bin/env bash
# Oracles under race: the tests that hold a fast path to a slow
# reference (closure pass vs whole graph, flat digraph vs the
# map-and-string one, snapshot writes vs the reference encoders,
# id-based analysis vs the by-name passes, shared crawl vs isolated
# walks, a restore read off the file vs the saved graph, ...) or that
# read while another goroutine writes, each run under -race at the
# count its line gives (-count=3 runs three different seeded streams).
#
# `go test -run` with a pattern that matches nothing exits 0, so a
# renamed or split oracle would silently leave the loop. Before running
# anything the script checks every alternative of every -run pattern
# against `go test -list` of its package (for a subtest pattern, the
# part before the first /), and fails naming each one that matches no
# test.
#
# Usage: scripts/oracles.sh   (from anywhere in the repository)
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"

# count|pattern|package, one go test run each.
oracles=(
	# Closure pass vs the whole graph, every trust set stored once and a
	# held generation's sets while later epochs intern, flat digraph vs
	# the map-and-string one, the chain-id column vs per-name lookups,
	# snapshot writes vs the reference encoder, a restore's names read
	# off the file vs the saved graph (before and after its first write
	# of each kind), and restored reads racing the first write.
	"3|TestIncrementalMatchesWholeGraph|TestDigraphMatchesReference|TestNameChainIDsMatchLookup|TestSnapshotWriteMatchesReference|TestRestoredNamesMatchCollected|TestRestoredReadsDuringFirstWrite|TestTrustSetsStoredOnce|TestHeldSetsReadSameWhileInterning|./internal/core/"
	# Every member of a digraph class vs its first chain's digraph.
	"3|TestDigraphClassesShareFill/stream|./internal/core/"
	# Id-based Summary/Bottlenecks vs the by-name passes, asked while an
	# Add commits; restore allocations flat in the corpus size.
	"3|TestSummaryMatchesByName|TestAnalysisRacesCommit|TestRestoreAllocsFlatInCorpus|."
	# The exact steps and solves of a warm fold or of the cold pass after
	# a flush, the flush itself, a commit that does not wait for a fold.
	"3|TestWarmAnalysisCostsWhatChanged|TestCommitDoesNotWaitForFold|TestChainMemoFlushesOnLateOrRescored|./internal/analysis/"
	# Shared crawl vs isolated walks, resolving through the walker's cuts
	# vs from the root, walker discoveries between crawls.
	"1|TestSharedCrawlMatchesIsolatedWalks|TestResolveFromMatchesRoot|TestEngineAbsorbsDiscoveriesBetweenAdds|./internal/crawler/"
	# The proxy: one descent per never-seen name, the judged path only,
	# serving while a crawl writes the walker.
	"3|TestProxyResolvesFromJudgedCut|TestProxyServesDuringAdd|TestProxyNeverSeenNameOneDescent|TestProxyAnswersOnlyThroughJudgedPath|TestProxyHonorsRetryBudget|TestProxyServesCNAME|./internal/proxy/"
	# Concurrent walks sharing closed-zone marks, a memo hit giving the
	# first answer, a memo that keeps no reply.
	"10|TestWalkConcurrent|TestWalkStressOverlappingCorpus|TestWalkCancellationIsolation|TestWalkReusesClosedZones|TestWalkLameHostReaskedAfterHeal|TestMemoHitMatchesFirstAnswer|TestWalkerKeepsNoReplies|./internal/resolver/"
	# Fleet ring balance, tail-only merge replay vs a fresh merge, the
	# coordinator dropping what it fetched and rescoring only held hosts,
	# the banner column vs its restore and merge and under writes.
	"3|TestRingBalance|TestTailReplay|TestCoordinatorDropsFetchedSnapshot|TestFingerprintsRestoreEquivalence|TestHeldGenerationNeverChanges|TestFleetRescoresOnlyHeldHosts|./internal/fleet/"
	# Snapshot writers that keep state between calls vs the reference
	# encoders, in package snapshot and for the crawl engine, and writes
	# racing Adds and walker discoveries.
	"3|TestWriterMatchesReference|TestWriteIDTableByteIdentical|./internal/snapshot/"
	"3|TestEngineSnapshotWriteMatchesReference|TestWriteSnapshotDuringAdd|./internal/crawler/"
	# The verdict cache: no stale publish across a commit, precise
	# eviction, a miss whose cost does not grow with the cache.
	"3|TestPostCommitLookupNeverStale|TestAdvancePreciseInvalidation|TestMissCostIndependentOfFill|./internal/verdict/"
)

# Every alternative must match a listed test, as -run matches it: an
# unanchored regular expression against the top-level test name.
status=0
declare -A listed
for line in "${oracles[@]}"; do
	pkg=${line##*|}
	rest=${line#*|}
	pattern=${rest%|*}
	if [ -z "${listed[$pkg]+set}" ]; then
		listed[$pkg]=$(go test -list '.*' "$pkg" | grep -v '^ok ')
	fi
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "${alt%%/*}" <<<"${listed[$pkg]}"; then
			echo "oracles: $pkg: -run alternative $alt matches no test" >&2
			status=1
		fi
	done
done
if [ "$status" -ne 0 ]; then
	exit "$status"
fi

for line in "${oracles[@]}"; do
	count=${line%%|*}
	pkg=${line##*|}
	rest=${line#*|}
	pattern=${rest%|*}
	echo "oracles: go test -race -count=$count -run '$pattern' $pkg"
	go test -race -count="$count" -run "$pattern" "$pkg"
done
echo "oracles: ok"
