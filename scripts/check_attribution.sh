#!/usr/bin/env bash
# Attribution gate: the trace an update payload carries is decided in one
# place, where a BRASS app builds the payload from the update it holds,
# and travels as the payload's tag (`burst::frame::Payload::trace`). The
# engine reads the tag; it never works the trace out again from the bytes,
# which named the wrong update whenever one object sat on two. Fails when
# the non-test code — everything before a file's `#[cfg(test)]` — of
# crates/bladerunner/src names the `"id"` key, the update id a payload's
# JSON echoes; crates/bladerunner/src/sim/tests.rs is a test module the
# `#[cfg(test)]` rule cannot see.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
status=0
while IFS= read -r file; do
    [ "$file" = crates/bladerunner/src/sim/tests.rs ] && continue
    awk '
        /^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /"id"/ { printf "%s:%d: %s\n", FILENAME, FNR, $0; found = 1 }
        END { exit found }
    ' "$file" || status=1
done < <(find crates/bladerunner/src -name '*.rs' | sort)
if [ "$status" -ne 0 ]; then
    echo "error: the engine reads an update id out of payload bytes; read the payload's trace tag" >&2
fi
exit "$status"
