#!/bin/sh
# Fails when a helper that must be inlined into its loop came out of line in
# a release binary: the inliner's choice can flip with edits anywhere in the
# crate graph, and each of these has cost a benchmark workload several
# percent when it did (README, "A code-generation trap on the way").
#
#   scripts/check_inlined_symbols.sh [binary]
#
# The default binary is the release oracle_bench, which links every kernel
# and the whole cold path; build it first:
#   cargo build --release --offline --manifest-path oracle_bench/Cargo.toml
set -eu

binary="${1:-oracle_bench/target/release/oracle_bench}"
[ -f "$binary" ] || { echo "check_inlined_symbols: no binary at $binary (build it first)" >&2; exit 2; }

# The analysis' row body (both instantiations: with and without block
# counts) and its stamp helpers; the opener of the BELL slice loops; the DIA
# row body (one registration in eight executes it) and the cut of its tiles;
# the BELL fill's skeleton and its portable lane loop, which fold into each
# fill body (`fill_bucket` and the AVX2 bodies are functions of their own),
# and the fill's share body, which folds into each pool index's job; the CSR,
# COO and BSR ranged SpMV bodies, which fold into each ranged kernel's part
# loop, whether a plan or `spmv_serial`'s one part runs it.
forbidden='RowWalk(<.*>)?::row|Stamps::count_(row|entry)|full_slices|dia_rows|row_tiles|bell::fill::fill(_lanes|_share)?($|::|<)|threaded::(coo_entries|csr_rows|bsr_block_rows)($|::|<)'

if found=$(nm -C "$binary" | grep -E "$forbidden"); then
    echo "check_inlined_symbols: out-of-line copies in $binary:" >&2
    echo "$found" >&2
    exit 1
fi
echo "check_inlined_symbols: $binary: no out-of-line RowWalk::row, Stamps::count_*, full_slices, dia_rows, row_tiles, bell::fill::fill, fill_lanes, fill_share, coo_entries, csr_rows, bsr_block_rows"
