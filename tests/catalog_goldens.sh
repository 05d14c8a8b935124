#!/bin/sh
# Byte-identity gate for the catalog benches (Figures 7, 8, 13-17 and
# Tables 1, 3, 4). Every case runs in quick mode, in text and in JSON,
# at --jobs 1 and at --jobs 4, and its stdout must equal the committed
# golden byte for byte. One golden per (case, format) serves both job
# counts, so the gate also proves the output does not depend on --jobs.
#
# usage: catalog_goldens.sh BENCH_DIR GOLDEN_DIR [--update]
#
# --update rewrites the goldens from the --jobs 1 runs (and still
# checks --jobs 4 against them); use it only on a commit whose output
# is known good.

set -u

if [ $# -lt 2 ]; then
    echo "usage: $0 BENCH_DIR GOLDEN_DIR [--update]" >&2
    exit 2
fi
bench_dir=$1
golden_dir=$2
update=${3:-}

tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT

# case name | binary | extra flags
cases='fig7_icache_miss|fig7_icache_miss|
fig8_dcache_miss|fig8_dcache_miss|
table1_ss5_vs_ss10|table1_ss5_vs_ss10|
table3_spec_estimates|table3_spec_estimates|
table4_spec_estimates_vc|table4_spec_estimates_vc|
fig13_lu|fig13_lu|
fig14_mp3d|fig14_mp3d|
fig15_ocean|fig15_ocean|
fig16_water|fig16_water|
fig17_pthor|fig17_pthor|
fig7_icache_miss-sampled|fig7_icache_miss|--sample mode=strat,n=6,U=400,W=1200
fig8_dcache_miss-sampled|fig8_dcache_miss|--sample U=500,W=1000,k=20
fig13_lu-nodes4|fig13_lu|--nodes 4
fig13_lu-sampled|fig13_lu|--sample U=500,W=1000,k=20'

fail=0
checked=0
old_ifs=$IFS
IFS='
'
for line in $cases; do
    IFS='|' read -r name bin extra <<EOF
$line
EOF
    for fmt in text json; do
        ext=txt
        [ "$fmt" = json ] && ext=json
        golden="$golden_dir/$name.$ext"
        for jobs in 1 4; do
            out="$tmp/$name.$jobs.$ext"
            IFS=' '
            # shellcheck disable=SC2086
            "$bench_dir/$bin" --quick $extra --format "$fmt" \
                --jobs "$jobs" > "$out" 2> "$tmp/stderr"
            rc=$?
            IFS='
'
            if [ $rc -ne 0 ]; then
                echo "FAIL $name ($fmt, --jobs $jobs): exit $rc"
                cat "$tmp/stderr"
                fail=1
                continue
            fi
            if [ "$update" = --update ] && [ "$jobs" = 1 ]; then
                cp "$out" "$golden"
            fi
            checked=$((checked + 1))
            if ! cmp -s "$golden" "$out"; then
                echo "FAIL $name ($fmt, --jobs $jobs) differs from" \
                     "$golden"
                diff -u "$golden" "$out" | head -40
                fail=1
            fi
        done
    done
done
IFS=$old_ifs

if [ $fail -ne 0 ]; then
    echo "catalog goldens: FAILED"
    exit 1
fi
echo "catalog goldens: $checked runs byte-identical"
