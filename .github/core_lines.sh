#!/usr/bin/env bash
# The size of xmap-core as ROADMAP.md counts it: for each crates/core/src/*.rs, the
# lines before the first `#[cfg(test)]` that are neither blank nor `//` comments (doc
# comments included), per file and in total. Exits non-zero when the total exceeds
# the ceiling, so the count moves up only on purpose; a change that shrinks the crate
# lowers the ceiling to its own result.
set -euo pipefail

ceiling=3547

cd "$(dirname "${BASH_SOURCE[0]}")/.."
awk -v ceiling="$ceiling" '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { lines[FILENAME]++; total++ }
    END {
        for (i = 1; i < ARGC; i++) printf "%6d %s\n", lines[ARGV[i]], ARGV[i]
        printf "%6d total (ceiling %d)\n", total, ceiling
        exit total > ceiling
    }' crates/core/src/*.rs
