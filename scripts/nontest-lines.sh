#!/bin/sh
# Counts the workspace's non-test Rust lines and prints the total.
#
# Counted: every `.rs` file under crates/, src/ and examples/ that is not
# inside a `tests/` directory, up to (not including) the `#[cfg(test)]`
# attribute that opens its `mod tests`. A `#[cfg(test)]` on anything else
# (a test-only method or import) does not end the count.
#
# Usage: scripts/nontest-lines.sh
set -eu
cd "$(dirname "$0")/.."

find crates src examples -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' |
    while IFS= read -r f; do
        awk '
            pending && /^[[:space:]]*(pub[^ ]* )?mod tests/ { exit }
            pending && !/^[[:space:]]*$/ { n += held; pending = 0 }
            pending { held++; next }
            /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; held = 1; next }
            { n++ }
            END { print n + 0 }
        ' "$f"
    done |
    awk '{ total += $1 } END { printf "%d non-test lines\n", total }'
