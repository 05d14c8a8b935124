#!/bin/sh
# Byte-identity gate for the benches whose numbers come from the GSPN
# CPI models (Figures 11, 12, Section 5.6, the scoreboard ablation and
# the GSPN-vs-execution cross-check). Each GOLDEN_DIR/NAME.txt is the
# text stdout of `BENCH_DIR/NAME --quick`, and every run must equal it
# byte for byte.
#
# usage: gspn_goldens.sh BENCH_DIR GOLDEN_DIR

if [ $# -ne 2 ]; then
    echo "usage: $0 BENCH_DIR GOLDEN_DIR" >&2
    exit 2
fi
bench_dir=$1
golden_dir=$2

tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT

fail=0
checked=0
for golden in "$golden_dir"/*.txt; do
    name=$(basename "$golden" .txt)
    if ! "$bench_dir/$name" --quick > "$tmp/out" 2> "$tmp/err"; then
        echo "FAIL $name: nonzero exit"
        cat "$tmp/err"
        fail=1
        continue
    fi
    checked=$((checked + 1))
    if ! cmp -s "$golden" "$tmp/out"; then
        echo "FAIL $name differs from $golden"
        diff -u "$golden" "$tmp/out" | head -40
        fail=1
    fi
done

if [ $fail -ne 0 ] || [ $checked -eq 0 ]; then
    echo "gspn goldens: FAILED"
    exit 1
fi
echo "gspn goldens: $checked runs byte-identical"
