#!/bin/sh
# Run a command and require one exact exit status and a diagnostic.
#
# usage: expect_exit.sh STATUS PATTERN CMD [ARG...]
#
# Passes when CMD exits with STATUS and its stderr contains the fixed
# string PATTERN. Any other status fails, so a crash or a generic
# failure cannot pass for a usage error.

if [ $# -lt 3 ]; then
    echo "usage: $0 STATUS PATTERN CMD [ARG...]" >&2
    exit 2
fi
want=$1
pattern=$2
shift 2

err=$("$@" 2>&1 > /dev/null)
rc=$?
if [ "$rc" -ne "$want" ]; then
    echo "FAIL: '$*' exited $rc, expected $want"
    echo "$err"
    exit 1
fi
case $err in
*"$pattern"*) ;;
*)
    echo "FAIL: '$*' stderr lacks '$pattern':"
    echo "$err"
    exit 1
    ;;
esac
echo "ok: exit $rc, '$pattern'"
