#!/bin/sh
# Prints the non-test line counts of crates/core/src and src/bin, the
# size metric the ROADMAP tracks: every line of each .rs file before its
# first top-level `#[cfg(test)]` (inline unit-test modules excluded).
#
# Usage: scripts/nontest-lines.sh [REPO_ROOT]   (default: this repo)
set -eu
cd "${1:-$(dirname "$0")/..}"
total=0
for dir in crates/core/src src/bin; do
    n=$(find "$dir" -name '*.rs' | sort | while read -r file; do
        awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file"
    done | awk '{ s += $1 } END { print s + 0 }')
    printf '%-16s %6d\n' "$dir" "$n"
    total=$((total + n))
done
printf '%-16s %6d\n' total "$total"
