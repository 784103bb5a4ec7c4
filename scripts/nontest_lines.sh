#!/usr/bin/env bash
# Prints the number of non-test lines of Rust under crates/: in every
# tracked .rs file outside a tests/ directory, the lines before its
# top-level test module (the first `#[cfg(test)]` line directly followed
# by a line that starts `mod `), or every line of a file without one.
# Counts the working tree of the repository it is run in, from any
# directory inside it.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
git ls-files -z -- 'crates/*.rs' | grep -zv '/tests/' | xargs -0 awk '
    function close_file() { total += found ? kept : last }
    FNR == 1 { if (NR > 1) close_file(); found = 0; last = 0; prev = "" }
    { last = FNR }
    !found && prev ~ /^#\[cfg\(test\)\][ \t]*$/ && $0 ~ /^mod / {
        found = 1; kept = FNR - 2
    }
    { prev = $0 }
    END { if (NR > 0) close_file(); print total + 0 }
' | awk '{ sum += $1 } END { print sum + 0 }'
