#!/bin/sh
# Counts non-test Rust lines: every line of the `.rs` files under
# `crates/` and `src/`, outside `tests/` directories, minus the
# `#[cfg(test)]` items (the attribute line through the end of the item
# it guards: the closing brace of its body, or its `;`).
#
# Usage: scripts/nontest-loc.sh [repo-root]    (default: the current directory)
# Prints the total; with `-v` as the first argument, also one
# `<lines> <file>` line per file.
set -eu
verbose=0
if [ "${1:-}" = "-v" ]; then
    verbose=1
    shift
fi
cd "${1:-.}"
find crates src -name '*.rs' -not -path '*/tests/*' | LC_ALL=C sort | xargs awk -v verbose="$verbose" '
# Brace depth change of one line, ignoring braces inside string and char
# literals and after a `//` comment. `instr` carries an open string
# literal over to the next line.
function depth_change(line,    d, i, c, n) {
    d = 0
    n = length(line)
    for (i = 1; i <= n; i++) {
        c = substr(line, i, 1)
        if (instr) {
            if (c == "\\") i++
            else if (c == "\"") instr = 0
        } else if (c == "\"") {
            instr = 1
        } else if (c == "/" && substr(line, i + 1, 1) == "/") {
            break
        } else if (c == "\x27" && substr(line, i + 2, 1) == "\x27") {
            i += 2
        } else if (c == "\x27" && substr(line, i + 1, 1) == "\\") {
            i = index(substr(line, i + 2), "\x27") + i + 1
        } else if (c == "{") {
            d++
        } else if (c == "}") {
            d--
        }
    }
    return d
}
FNR == 1 {
    if (NR > 1 && verbose) printf "%d %s\n", kept, prev
    kept = 0; skipping = 0; instr = 0; prev = FILENAME
}
{
    if (!skipping && $0 ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/) {
        skipping = 1; opened = 0; depth = 0
        next
    }
    if (skipping) {
        depth += depth_change($0)
        if (depth > 0) opened = 1
        if ((opened && depth <= 0) || (!opened && depth == 0 && $0 ~ /;[ \t]*$/)) skipping = 0
        next
    }
    kept++
    total++
}
END {
    if (verbose && NR > 0) printf "%d %s\n", kept, prev
    print total
}'
