#!/bin/sh
# Fails when a decision-cache or alias entry is written outside
# crates/core/src/serve/decide.rs, whose `OracleService::store` is the one
# write of an entry: a miss's answer, the realized replacement, an alias, an
# alias a registration promotes, an open horizon priced and an import all go
# through it, under the generation gate that keeps a hot-swapped model's
# decisions out.
#
#   scripts/check_entry_writes.sh [source dir]
#
# It reads the non-test lines of crates/core/src (a file's lines from its
# first `#[cfg(test)]` on are its test module) and flags any call of
# `insert_if_generation` but its definition in cache.rs, and any `.insert(`
# on the `decisions` or `aliases` tables, also where rustfmt broke the chain
# after the table's name.
set -eu

root="${1:-crates/core/src}"
[ -d "$root" ] || { echo "check_entry_writes: no directory $root" >&2; exit 2; }

found=$(find "$root" -name '*.rs' ! -path '*/serve/decide.rs' | sort | xargs awk '
    FNR == 1 { test = 0; prev = "" }
    /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
    test || /^[[:space:]]*\/\// { next }
    /insert_if_generation\(/ && !/fn insert_if_generation\(/ { print FILENAME ":" FNR ": " $0; prev = $0; next }
    /(decisions|aliases)[[:space:]]*\.[[:space:]]*insert\(/ { print FILENAME ":" FNR ": " $0; prev = $0; next }
    /^[[:space:]]*\.insert\(/ && prev ~ /(decisions|aliases)[[:space:]]*$/ { print FILENAME ":" FNR ": " $0 }
    { prev = $0 }
')

if [ -n "$found" ]; then
    echo "check_entry_writes: entries written outside serve/decide.rs (call OracleService::store):" >&2
    echo "$found" >&2
    exit 1
fi
echo "check_entry_writes: every entry write is in serve/decide.rs"
