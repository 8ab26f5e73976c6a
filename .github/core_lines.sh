#!/usr/bin/env bash
# The size of xmap-core as ROADMAP.md counts it: for each crates/core/src/*.rs, the
# lines before the first `#[cfg(test)]` that are neither blank nor `//` comments (doc
# comments included), per file and in total — and its surface: the `pub` (not
# `pub(crate)`) `fn` / `struct` / `enum` / `trait` / `const` / `type` / `mod` / `use`
# lines among them. Exits non-zero when either total exceeds its ceiling, so the
# counts move up only on purpose; a change that shrinks the crate lowers the ceilings
# to its own results.
set -euo pipefail

ceiling=3048
pub_ceiling=153

cd "$(dirname "${BASH_SOURCE[0]}")/.."
awk -v ceiling="$ceiling" -v pub_ceiling="$pub_ceiling" '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { lines[FILENAME]++; total++ }
    /^[[:space:]]*pub (fn|struct|enum|trait|const|type|mod|use) / { pubs[FILENAME]++; pub_total++ }
    END {
        for (i = 1; i < ARGC; i++) printf "%6d %4d pub  %s\n", lines[ARGV[i]], pubs[ARGV[i]], ARGV[i]
        printf "%6d %4d pub  total (ceilings %d, %d)\n", total, pub_total, ceiling, pub_ceiling
        exit total > ceiling || pub_total > pub_ceiling
    }' crates/core/src/*.rs
