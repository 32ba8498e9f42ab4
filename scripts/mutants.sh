#!/usr/bin/env bash
# Committed mutants: each scripts/mutants/*.patch breaks the program on
# purpose, and the tests its header names must catch it. A header line
#
#   kills: <package> <TestName>
#
# (one or more, before the diff) names a test that must report FAIL
# once the patch is applied. Each patch is applied to HEAD in a
# throwaway git worktree and only its named tests run. The script fails
# when a patch no longer applies or a named test passes (the mutant
# survived); a mutant that does not build survives too, since no named
# test reports FAIL.
#
# Usage: scripts/mutants.sh   (from anywhere in the repository)
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
work=$(mktemp -d)
tree="$work/tree"
cleanup() {
	git worktree remove --force "$tree" >/dev/null 2>&1 || true
	rm -rf "$work"
	git worktree prune
}
trap cleanup EXIT
git worktree add --detach --quiet "$tree" HEAD

status=0
for patch in scripts/mutants/*.patch; do
	name=$(basename "$patch" .patch)
	git -C "$tree" checkout --quiet -- .
	if ! git -C "$tree" apply "$root/$patch"; then
		echo "mutants: $name: the patch no longer applies to HEAD" >&2
		status=1
		continue
	fi
	kills=$(sed -n 's/^kills: //p' "$patch")
	if [ -z "$kills" ]; then
		echo "mutants: $name: no 'kills:' line names a test" >&2
		status=1
		continue
	fi
	while read -r pkg test; do
		log="$work/$name.$test.log"
		(cd "$tree" && go test -count=1 -run "^${test}\$" "$pkg") >"$log" 2>&1 || true
		if grep -q -- "--- FAIL: ${test} " "$log"; then
			echo "mutants: $name: killed by $pkg $test"
		else
			echo "mutants: $name: SURVIVED $pkg $test" >&2
			tail -n 20 "$log" >&2
			status=1
		fi
	done <<<"$kills"
done
if [ "$status" -eq 0 ]; then
	echo "mutants: ok"
fi
exit "$status"
