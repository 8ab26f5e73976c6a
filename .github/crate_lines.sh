#!/usr/bin/env bash
# The size of every library crate, and of the experiment harness (`bench`) and the audit
# (`check`), whose src trees hold their binaries too, as ROADMAP.md counts it: for each
# crates/<crate>/src tree, the lines that are neither blank nor `//` comments (doc comments
# included) — and its surface: the `pub` (not `pub(crate)`) `fn` / `struct` / `enum` /
# `trait` / `const` / `type` / `mod` / `use` lines among them. A `#[cfg(test)]`
# followed by a `mod` ends a file's count; any other `#[cfg(test)]` skips only the item
# it annotates (up to its `;` or its balanced closing brace), so a test-only `fn`
# halfway down a file hides nothing after it. Exits non-zero when any crate exceeds
# either of its ceilings, so the counts move up only on purpose; a change that shrinks
# a crate lowers its ceilings to its own results.
set -euo pipefail

# crate, line ceiling, `pub` ceiling
ceilings="
cf 1812 132
graph 634 59
engine 2028 135
privacy 285 32
store 769 59
dataset 742 41
eval 422 41
core 2364 142
bench 2114 76
check 2240 29
"

cd "$(dirname "${BASH_SOURCE[0]}")/.."
shopt -s globstar
files=()
for crate in $(awk 'NF { print $1 }' <<<"$ceilings"); do
    files+=(crates/"$crate"/src/**/*.rs)
done
awk -v ceilings="$ceilings" '
    # Net brace depth of a line, ignoring braces in string and char literals.
    function depth_of(line) {
        gsub(/"([^"\\]|\\.)*"/, "", line)
        gsub(/'"'"'(\\.|[^'"'"'\\])'"'"'/, "", line)
        return gsub(/\{/, "", line) - gsub(/\}/, "", line)
    }
    FNR == 1 { in_tests = 0; pending = 0; skipping = 0; split(FILENAME, path, "/"); crate = path[2] }
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
    { lines[crate]++ }
    /^[[:space:]]*pub (fn|struct|enum|trait|const|type|mod|use) / { pubs[crate]++ }
    END {
        failed = 0
        n = split(ceilings, rows, "\n")
        for (i = 1; i <= n; i++) {
            if (split(rows[i], f, " ") < 3) continue
            over = lines[f[1]] > f[2] || pubs[f[1]] > f[3]
            printf "%6d %4d pub  %-8s (ceilings %d, %d)%s\n", lines[f[1]], pubs[f[1]], f[1], f[2], f[3], over ? "  OVER" : ""
            failed = failed || over
        }
        exit failed
    }' "${files[@]}"
