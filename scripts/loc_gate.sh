#!/usr/bin/env bash
# loc_gate.sh — fail when the tree outgrows its budget.
#
# scripts/loc_budget holds one number: the most non-test Go lines
# (`make loc`'s total) the tree may have. A PR that shrinks the tree
# lowers the number to its own total, so ROADMAP's size target ratchets;
# a PR that must grow it raises the number in the same diff, where a
# reviewer sees it. Mirrored as `make loc-gate`.
set -euo pipefail

cd "$(dirname "$0")/.."

budget=$(<scripts/loc_budget)
total=$(./scripts/loc.sh | awk '$2 == "total" { print $1 }')
if (( total > budget )); then
    echo "loc-gate: $total non-test Go lines, budget $budget (scripts/loc_budget)" >&2
    exit 1
fi
echo "loc-gate: $total non-test Go lines, budget $budget"
