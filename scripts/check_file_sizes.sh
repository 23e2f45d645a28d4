#!/usr/bin/env bash
# File-size gate: no source file under crates/*/src carries more than 1,500
# lines of non-test code — everything before the file's `#[cfg(test)]`. A
# file past that holds more than one subsystem (sim.rs held the whole
# event loop at 3,242); split it along its seams, and while splitting,
# write each repeated body once.
#
# It also prints the non-test lines of each crate and of all of them: the
# code size ROADMAP.md quotes. crates/bladerunner/src/sim/tests.rs is a
# test module the `#[cfg(test)]` rule cannot see, so the totals skip it.
# Then, with no limit, every line of each vendored shim's src/, of all
# shims together and of examples/: the counts ROADMAP.md quotes outside
# crates/*/src.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
limit=1500
status=0
declare -A crate_lines
total=0
while IFS= read -r file; do
    lines=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    if [ "$lines" -gt "$limit" ]; then
        echo "$file: $lines non-test lines (limit $limit)"
        status=1
    fi
    if [ "$file" != crates/bladerunner/src/sim/tests.rs ]; then
        crate=${file#crates/}
        crate=${crate%%/*}
        crate_lines[$crate]=$((${crate_lines[$crate]:-0} + lines))
        total=$((total + lines))
    fi
done < <(find crates/*/src -name '*.rs' | sort)
for crate in $(printf '%s\n' "${!crate_lines[@]}" | sort); do
    printf '%-12s %6d non-test lines\n' "$crate" "${crate_lines[$crate]}"
done
printf '%-12s %6d non-test lines\n' total "$total"
lines_in() { find "$@" -name '*.rs' -exec cat {} + | wc -l; }
shims=(shims/*/src)
for src in "${shims[@]}"; do
    printf '%-16s %6d lines\n' "${src%/src}" "$(lines_in "$src")"
done
printf '%-16s %6d lines in %d shims\n' shims "$(lines_in "${shims[@]}")" "${#shims[@]}"
printf '%-16s %6d lines\n' examples "$(lines_in examples)"
if [ "$status" -ne 0 ]; then
    echo "error: split the file along its seams (see crates/bladerunner/src/sim/ for the shape)" >&2
fi
exit "$status"
