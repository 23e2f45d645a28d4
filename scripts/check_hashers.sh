#!/usr/bin/env bash
# Hasher gate (see the rule in crates/simkit/src/fxhash.rs): every table
# holding simulation state is an FxHashMap/FxHashSet. Fails when a
# RandomState `HashMap`/`HashSet` appears in the non-test code — everything
# before a file's `#[cfg(test)]` — of the simulation crates. Exempt:
# fxhash.rs (defines the aliases), snap.rs (signatures generic over the
# hasher), fuzz.rs (offline analysis after the sim has run).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
status=0
while IFS= read -r file; do
    case "$file" in
        crates/simkit/src/fxhash.rs | crates/simkit/src/snap.rs | crates/bladerunner/src/fuzz.rs) continue ;;
    esac
    awk '
        /^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /(^|[^A-Za-z_])Hash(Map|Set)([^A-Za-z_]|$)/ { printf "%s:%d: %s\n", FILENAME, FNR, $0; found = 1 }
        END { exit found }
    ' "$file" || status=1
done < <(find crates/{simkit,tao,pylon,burst,brass,was,edge,bladerunner}/src -name '*.rs' | sort)
if [ "$status" -ne 0 ]; then
    echo "error: RandomState HashMap/HashSet in simulation-state code; use simkit::fxhash::{FxHashMap, FxHashSet}" >&2
fi
exit "$status"
