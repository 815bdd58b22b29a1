#!/usr/bin/env bash
# loc_gate.sh — fail when the tree or its documents outgrow their budgets.
#
# scripts/loc_budget holds one number: the most non-test Go lines
# (`make loc`'s total) the tree may have. scripts/doc_budget holds one
# `file lines` pair a line: the most lines README.md, DESIGN.md and
# EXPERIMENTS.md may have. A PR that shrinks the tree or a document
# lowers its number to its own total, so ROADMAP's size targets ratchet;
# a PR that must grow one raises the number in the same diff, where a
# reviewer sees it, and says why in CHANGES.md. Mirrored as
# `make loc-gate`.
set -euo pipefail

cd "$(dirname "$0")/.."

status=0
budget=$(<scripts/loc_budget)
total=$(./scripts/loc.sh | awk '$2 == "total" { print $1 }')
if (( total > budget )); then
    echo "loc-gate: $total non-test Go lines, budget $budget (scripts/loc_budget)" >&2
    status=1
else
    echo "loc-gate: $total non-test Go lines, budget $budget"
fi
while read -r doc cap; do
    lines=$(wc -l <"$doc")
    if (( lines > cap )); then
        echo "loc-gate: $doc has $lines lines, budget $cap (scripts/doc_budget)" >&2
        status=1
    else
        echo "loc-gate: $doc $lines lines, budget $cap"
    fi
done <scripts/doc_budget
exit $status
