#!/usr/bin/env sh
# Fails when README.md's registryd flag reference table drifts from the
# flags cmd/registryd/main.go registers: every registered flag must be
# in the table, and the table may name no other. Run via
# `make docs-check`.
set -eu

cd "$(dirname "$0")/.."

CODE="$(mktemp)"
DOCS="$(mktemp)"
trap 'rm -f "$CODE" "$DOCS"' EXIT

# Flag registrations in code: flag.String("name", ...), and the
# flag.StringVar(&v, "name", ...) form. The name literal is on the call
# line, so a line-based grep is exact.
grep -hoE 'flag\.[A-Z][A-Za-z0-9]*\((&[^,]+, *)?"[^"]+"' cmd/registryd/main.go |
    sed 's/^[^"]*"//; s/"$//' | sort -u > "$CODE"

# Backticked -flags in the first column of the rows of the table under
# the "registryd flag reference" heading (a row may name two flags).
awk '/^### registryd flag reference/ { on = 1; next }
     on && /^#/ { exit }
     on && /^\|/ { print }' README.md |
    awk -F'|' '{ print $2 }' | grep -oE '`-[A-Za-z0-9._-]+`' |
    sed 's/^`-//; s/`$//' | sort -u > "$DOCS"

if [ ! -s "$CODE" ]; then
    echo "check_flag_docs: found no flag registrations in cmd/registryd/main.go" >&2
    exit 1
fi
if [ ! -s "$DOCS" ]; then
    echo "check_flag_docs: found no flag table under README.md's registryd flag reference" >&2
    exit 1
fi

if ! diff -u "$DOCS" "$CODE" > /dev/null; then
    echo "check_flag_docs: README.md's registryd flag table is out of sync with cmd/registryd/main.go:" >&2
    echo "  (<) documented but not registered   (>) registered but undocumented" >&2
    diff "$DOCS" "$CODE" | grep '^[<>]' >&2
    exit 1
fi

echo "check_flag_docs: $(wc -l < "$CODE" | tr -d ' ') registryd flags documented and in sync"
