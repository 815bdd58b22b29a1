#!/usr/bin/env bash
# loc.sh — non-test Go line count per package, and the total.
#
# `wc -l` over every tracked-or-not *.go file that is not a *_test.go,
# grouped by directory (the module root prints as "."). This is the
# table each CHANGES.md entry records as parent → now, so the size
# trend ROADMAP asks for is one command. Mirrored as `make loc`; CI
# writes it into the job summary.
set -euo pipefail

cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' -not -path './.git/*' -print0 |
    xargs -0 wc -l |
    awk '$2 != "total" {
            dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\//, "", dir)
            lines[dir] += $1; total += $1
         }
         END {
            for (d in lines) printf "%6d  %s\n", lines[d], d | "sort -k2"
            close("sort -k2")
            printf "%6d  total\n", total
         }'
