#!/bin/sh
# Require that a bench's --refs reaches its computation.
#
# usage: refs_honoured.sh BENCH
#
# Passes when `BENCH --quick --refs 100000` prints different stdout
# from `BENCH --quick`. The banner does not echo --refs, so a bench
# that silently ignores the flag prints the same bytes twice.

if [ $# -ne 1 ]; then
    echo "usage: $0 BENCH" >&2
    exit 2
fi

quick=$("$1" --quick) || { echo "FAIL: '$1 --quick' failed"; exit 1; }
refs=$("$1" --quick --refs 100000) ||
    { echo "FAIL: '$1 --quick --refs 100000' failed"; exit 1; }
if [ "$quick" = "$refs" ]; then
    echo "FAIL: '$1' prints the same output with --refs 100000"
    exit 1
fi
echo "ok: --refs changes '$1' output"
