#!/usr/bin/env bash
# Codec gate (see "One codec per type" in crates/simkit/src/snap.rs): state
# is encoded only through `simkit::snap`'s SnapWriter/SnapReader, so no
# type keeps a second byte format of its own with its own readers to keep
# in step. Fails when `to_le_bytes`/`from_le_bytes` appear in the non-test
# code — everything before a file's `#[cfg(test)]` — of the simulation
# crates. Exempt: snap.rs (the codec) and fxhash.rs (hashes integers by
# their bytes); crates/bladerunner/src/sim/tests.rs is a test module the
# `#[cfg(test)]` rule cannot see.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
status=0
while IFS= read -r file; do
    case "$file" in
        crates/simkit/src/snap.rs | crates/simkit/src/fxhash.rs | crates/bladerunner/src/sim/tests.rs) continue ;;
    esac
    awk '
        /^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /(to|from)_le_bytes/ { printf "%s:%d: %s\n", FILENAME, FNR, $0; found = 1 }
        END { exit found }
    ' "$file" || status=1
done < <(find crates/{simkit,tao,pylon,burst,brass,was,edge,bladerunner}/src -name '*.rs' | sort)
if [ "$status" -ne 0 ]; then
    echo "error: hand-rolled byte encoding in simulation code; write it through simkit::snap::{SnapWriter, SnapReader}" >&2
fi
exit "$status"
