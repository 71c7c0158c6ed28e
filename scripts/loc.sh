#!/usr/bin/env sh
# Prints the non-test Go line count of every package under cmd/,
# internal/ and examples/, then their total: the size figure ROADMAP.md
# and CHANGES.md quote for simplicity changes. Lines are physical lines
# (`wc -l`), comments and blanks included; *_test.go files are left out.
#
# Usage: scripts/loc.sh   (or `make loc`)
set -eu

cd "$(dirname "$0")/.."

find cmd internal examples -name '*.go' ! -name '*_test.go' -exec wc -l {} + |
    awk '$2 != "total" {
            dir = $2
            sub(/\/[^\/]*$/, "", dir)
            lines[dir] += $1
            total += $1
        }
        END {
            for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
            close("sort -k2")
            printf "%7d  total\n", total
        }'
