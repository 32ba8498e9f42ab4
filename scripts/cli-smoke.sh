#!/usr/bin/env bash
# Process-level smoke of the one-shot entry points that have no test
# files: cmd/dnshijack, cmd/dnsgraph and the examples that crawl a
# hand-built world through crawler.Run or survey a generated one through
# Open + Add; and dnssurvey's -memo-file resume round trip. Also pins the
# layering: internal/core stays a leaf.
#
# Usage: scripts/cli-smoke.sh   (from the repository root)
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail() {
	echo "cli-smoke: FAIL: $*" >&2
	exit 1
}

go build -o "$work/" ./cmd/dnshijack ./cmd/dnsgraph ./cmd/dnssurvey \
	./examples/quickstart ./examples/cornell-graph ./examples/fbi-hijack ./examples/live-crawl

# The paper's T-C attack, and the cheapest one the min-cut finds.
"$work/dnshijack" -world fbi -compromise reston-ns2.telemail.net \
	-dos reston-ns1.telemail.net,reston-ns3.telemail.net >"$work/hijack.out"
grep -q "complete hijack" "$work/hijack.out" || fail "dnshijack: the T-C attack is not a complete hijack"
"$work/dnshijack" -plan >"$work/plan.out"
grep -q "minimum complete-hijack cut: 2 servers" "$work/plan.out" || fail "dnshijack -plan: fbi.gov min-cut is not 2 servers"

# Rendering is a function of the world, not of the crawl's schedule.
for world in figure1 fbi ukraine; do
	for format in dot tcb zones; do
		"$work/dnsgraph" -world "$world" -format "$format" >"$work/a.out"
		"$work/dnsgraph" -world "$world" -format "$format" >"$work/b.out"
		[ -s "$work/a.out" ] || fail "dnsgraph -world $world -format $format printed nothing"
		cmp -s "$work/a.out" "$work/b.out" || fail "dnsgraph -world $world -format $format differs between two runs"
	done
done

for ex in quickstart cornell-graph fbi-hijack live-crawl; do
	if ! "$work/$ex" >"$work/$ex.out" 2>"$work/$ex.err"; then
		cat "$work/$ex.err" >&2
		fail "examples/$ex exited non-zero"
	fi
done
grep -q "wire crawl matches in-memory crawl" "$work/live-crawl.out" || fail "examples/live-crawl: wire and in-memory crawls disagree"
grep -q "HIJACKED" "$work/fbi-hijack.out" || fail "examples/fbi-hijack: the forged answers did not divert www.fbi.gov"

# A -memo-file survey resumes to the same report, and its memo file is a
# recording that strict -replay serves. At 300 names some shape claims
# fail (exit 3), so the runs must agree on the status, not return 0.
survey() {
	local out=$1
	shift
	status=0
	"$work/dnssurvey" -names 300 -seed 5 -quiet "$@" >"$work/$out" 2>"$work/$out.err" || status=$?
	[ "$status" -eq 0 ] || [ "$status" -eq 3 ] || { cat "$work/$out.err" >&2; fail "dnssurvey $* exited $status"; }
}
survey memo1.out -memo-file "$work/m.qlog"
first=$status
[ -s "$work/m.qlog" ] || fail "dnssurvey -memo-file saved no log"
survey memo2.out -memo-file "$work/m.qlog"
[ "$status" -eq "$first" ] || fail "resumed dnssurvey exited $status, the first run $first"
cmp -s "$work/memo1.out" "$work/memo2.out" || fail "dnssurvey resumed from -memo-file printed a different report"
survey replay.out -replay "$work/m.qlog"
[ "$status" -eq "$first" ] || fail "dnssurvey -replay of the memo file exited $status, the first run $first"
cmp -s "$work/memo1.out" "$work/replay.out" || fail "dnssurvey -replay of the memo file printed a different report"
printf 'DNSQMEMO1\n' >"$work/old.memo"
if "$work/dnssurvey" -names 300 -seed 5 -quiet -memo-file "$work/old.memo" >/dev/null 2>"$work/old.err"; then
	fail "dnssurvey resumed from an old-format memo file"
fi
grep -qF "$work/old.memo" "$work/old.err" || fail "the old-format memo file error does not name the file"

# core builds graphs from events; it must not know who produces them.
if deps=$(go list -deps ./internal/core | grep -E '^dnstrust/internal/(resolver|transport|dnswire|crawler)$'); then
	fail "internal/core depends on: $deps"
fi

echo "cli-smoke: ok"
