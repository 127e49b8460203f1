#!/usr/bin/env bash
# Fails when a filter of a `cargo test … -- <filter>…` command in the CI
# workflow selects no test, so a renamed test cannot drop silently out of the
# job that is meant to run it. Each filter is checked on its own with
# `cargo test … -- --list <filter>`.
#
# Usage: .github/scripts/check-test-filters.sh [workflow]
#        (default workflow: .github/workflows/ci.yml)
set -euo pipefail

workflow="${1:-.github/workflows/ci.yml}"
failed=0
while IFS= read -r line; do
    command="$(sed -E 's/^[[:space:]]*(run:[[:space:]]*)?//' <<<"$line")"
    prefix="${command%% -- *}"
    for filter in ${command#* -- }; do
        # `|| true`: grep exits 1 on a count of zero, which is reported below.
        listed="$($prefix -- --list "$filter" 2>/dev/null | grep -c ': test$' || true)"
        if [ "$listed" -eq 0 ]; then
            echo "no test matches filter '$filter' of: $command"
            failed=1
        else
            echo "$listed tests match '$filter' of: $command"
        fi
    done
done < <(grep -E '^[[:space:]]*(run:[[:space:]]*)?cargo test .* -- ' "$workflow")
exit "$failed"
