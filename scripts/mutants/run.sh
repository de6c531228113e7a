#!/usr/bin/env bash
# Mutation check: does the test battery catch real bugs?
#
# Each `*.patch` in this directory is a hand-written bug (its first line
# says which). For each one the script runs `git apply`, then the tier-1
# tests (`cargo test -q`), then `git apply -R`, and reports the mutant
# killed (some test failed) or survived (every test passed). It exits 1 if
# any mutant survived.
#
# It edits the working tree while a mutant is applied, so run it on a
# clean checkout or a copy. Usage: scripts/mutants/run.sh [PATCH...]
set -uo pipefail
cd "$(dirname "$0")/../.."

patches=("$@")
if [ ${#patches[@]} -eq 0 ]; then
    patches=(scripts/mutants/*.patch)
fi

applied=""
trap '[ -n "$applied" ] && git apply -R "$applied"' EXIT

killed=0
survived=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    if ! git apply "$patch"; then
        echo "$name: does not apply" >&2
        exit 2
    fi
    applied=$patch
    if cargo test -q --offline >/dev/null 2>&1; then
        echo "$name: SURVIVED"
        survived=$((survived + 1))
    else
        echo "$name: killed"
        killed=$((killed + 1))
    fi
    git apply -R "$patch"
    applied=""
done
echo "killed $killed of $((killed + survived)) mutants"
[ "$survived" -eq 0 ]
