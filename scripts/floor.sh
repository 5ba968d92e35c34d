#!/usr/bin/env bash
# Usage: scripts/floor.sh [go test flag]... <package> <TestName>...
#
# Runs the named tests of one package once, uncached, with any leading
# go test flags (e.g. -race), and fails unless every one of them prints
# "--- PASS": a renamed or deleted test fails here instead of silently
# matching nothing.
set -euo pipefail
flags=()
while [[ $1 == -* ]]; do
  flags+=("$1")
  shift
done
pkg=$1
shift
out="$(go test "${flags[@]}" -count=1 -v -run "^($(IFS='|'; echo "$*"))\$" "$pkg")"
echo "$out"
for name in "$@"; do
  grep -q "^--- PASS: $name (" <<<"$out" || { echo "floor: $pkg $name did not print --- PASS" >&2; exit 1; }
done
