#!/usr/bin/env bash
# Usage: .github/race-pass.sh PKG TEST...
#
# Runs the named top-level tests of PKG twice under the race detector.
# Each name must match a test exactly: `go test -run` with a pattern
# that matches nothing passes silently, so a renamed or deleted test
# would otherwise drop out of the pass without anyone noticing.
set -euo pipefail
pkg=$1
shift
listed=$(go test -list . "$pkg")
for name in "$@"; do
  if ! grep -qx "$name" <<<"$listed"; then
    echo "race pass: $pkg has no test named $name" >&2
    exit 1
  fi
done
pattern="^($(IFS='|'; echo "$*"))\$"
go test -race -count 2 -run "$pattern" "$pkg"
