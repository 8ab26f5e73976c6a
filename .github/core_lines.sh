#!/usr/bin/env bash
# The size of xmap-core as ROADMAP.md counts it: for each crates/core/src/*.rs, the
# library lines that are neither blank nor `//` comments (doc comments included), per
# file and in total — and its surface: the `pub` (not `pub(crate)`) `fn` / `struct` /
# `enum` / `trait` / `const` / `type` / `mod` / `use` lines among them. A
# `#[cfg(test)]` followed by a `mod` ends a file's count; any other `#[cfg(test)]`
# skips only the item it annotates (up to its `;` or its balanced closing brace), so
# a test-only `fn` halfway down a file hides nothing after it. Exits non-zero when
# either total exceeds its ceiling, so the counts move up only on purpose; a change
# that shrinks the crate lowers the ceilings to its own results.
set -euo pipefail

ceiling=2838
pub_ceiling=143

cd "$(dirname "${BASH_SOURCE[0]}")/.."
awk -v ceiling="$ceiling" -v pub_ceiling="$pub_ceiling" '
    # Net brace depth of a line, ignoring braces in string and char literals.
    function depth_of(line) {
        gsub(/"([^"\\]|\\.)*"/, "", line)
        gsub(/'"'"'(\\.|[^'"'"'\\])'"'"'/, "", line)
        return gsub(/\{/, "", line) - gsub(/\}/, "", line)
    }
    FNR == 1 { in_tests = 0; pending = 0; skipping = 0 }
    in_tests { next }
    skipping {
        depth += depth_of($0)
        if (index($0, "{")) opened = 1
        if ((opened && depth <= 0) || (!opened && /;[[:space:]]*$/)) skipping = 0
        next
    }
    /^[[:space:]]*#\[cfg\(test\)\]/ { pending = 1; next }
    pending && (/^[[:space:]]*$/ || /^[[:space:]]*\/\// || /^[[:space:]]*#\[/) { next }
    pending && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { in_tests = 1; next }
    pending {
        pending = 0
        depth = depth_of($0)
        opened = index($0, "{") > 0
        if (!((opened && depth <= 0) || (!opened && /;[[:space:]]*$/))) skipping = 1
        next
    }
    /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { lines[FILENAME]++; total++ }
    /^[[:space:]]*pub (fn|struct|enum|trait|const|type|mod|use) / { pubs[FILENAME]++; pub_total++ }
    END {
        for (i = 1; i < ARGC; i++) printf "%6d %4d pub  %s\n", lines[ARGV[i]], pubs[ARGV[i]], ARGV[i]
        printf "%6d %4d pub  total (ceilings %d, %d)\n", total, pub_total, ceiling, pub_ceiling
        exit total > ceiling || pub_total > pub_ceiling
    }' crates/core/src/*.rs
