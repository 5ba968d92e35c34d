#!/usr/bin/env bash
# Usage: scripts/floor.sh <package> <TestName>...
#
# Runs the named tests of one package once, uncached, and fails unless
# every one of them prints "--- PASS": a renamed or deleted test fails
# here instead of silently matching nothing.
set -euo pipefail
pkg=$1
shift
out="$(go test -count=1 -v -run "^($(IFS='|'; echo "$*"))\$" "$pkg")"
echo "$out"
for name in "$@"; do
  grep -q "^--- PASS: $name (" <<<"$out" || { echo "floor: $pkg $name did not print --- PASS" >&2; exit 1; }
done
