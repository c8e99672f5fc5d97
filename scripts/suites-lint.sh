#!/bin/sh
# Suite-selection lint: every |-alternative of a race suite's -run
# pattern must match at least one test, fuzz target or example in the
# suite's packages (go test -list uses the same matcher as -run). A test
# renamed or moved out of a suite's packages otherwise drops out of the
# suite without any failure.
#
# Usage: suites-lint.sh SUITE PATTERN PKG...
set -eu

suite=$1
pattern=$2
shift 2

status=0
set -f
old_ifs=$IFS
IFS='|'
for alt in $pattern; do
	IFS=$old_ifs
	if ! listed=$(go test -list "$alt" "$@" 2>&1); then
		echo "suites-lint: $suite: go test -list failed:" >&2
		echo "$listed" >&2
		exit 1
	fi
	if ! echo "$listed" | grep -Eq '^(Test|Fuzz|Example)'; then
		echo "suites-lint: $suite: -run alternative '$alt' matches no test in $*" >&2
		status=1
	fi
done
exit $status
