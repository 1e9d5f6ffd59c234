#!/usr/bin/env bash
# Usage: .github/mutants.sh [TABLE]
#
# Runs the mutant table (default: .github/mutants.tsv next to this
# script) against a temporary copy of the tree; the working tree is
# never touched. A row is five tab-separated fields:
#
#   FILE  LINE  REPLACEMENT  PACKAGE  TESTS
#
# LINE is one source line with its leading whitespace trimmed, and the
# replacement keeps the original line's indentation. TESTS is a
# space-separated list of top-level test names in PACKAGE. Blank lines
# and lines starting with # are skipped. Every row must hold all of:
#
#   - LINE occurs exactly once in FILE (compared trimmed);
#   - every named test exists, and passes on the unmutated tree;
#   - the mutant builds, PACKAGE's tests included;
#   - every named test fails with the mutant in place.
#
# The script exits non-zero if any row breaks one of these.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
table=$(cd "$(dirname "${1:-$here/mutants.tsv}")" && pwd)/$(basename "${1:-$here/mutants.tsv}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
tar -C "$root" --exclude=.git -cf - . | tar -C "$tmp" -xf -
cd "$tmp"

bad=0
row=0
complain() {
  echo "row $row ($file): $*" >&2
  bad=1
}

# count_line FILE prints how many lines of FILE equal $WANT once trimmed.
count_line() {
  awk '{ s = $0; sub(/^[ \t]+/, "", s); if (s == ENVIRON["WANT"]) n++ } END { print n + 0 }' "$1"
}

# mutate FILE replaces the line equal to $WANT (trimmed) with $REPL,
# keeping its indentation.
mutate() {
  awk '{
    s = $0; sub(/^[ \t]+/, "", s)
    if (s == ENVIRON["WANT"]) print substr($0, 1, length($0) - length(s)) ENVIRON["REPL"]
    else print
  }' "$1" > "$1.mutant"
  mv "$1.mutant" "$1"
}

while IFS= read -r line || [ -n "$line" ]; do
  case "$line" in '' | '#'*) continue ;; esac
  row=$((row + 1))
  IFS=$'\t' read -r -a f <<<"$line"
  file=${f[0]:-?}
  if [ "${#f[@]}" -ne 5 ]; then
    complain "want 5 tab-separated fields, got ${#f[@]}"
    continue
  fi
  want=${f[1]} repl=${f[2]} pkg=./${f[3]#./}
  read -r -a tests <<<"${f[4]}"

  if [ "${#tests[@]}" -eq 0 ]; then
    complain "names no test"
    continue
  fi
  if [ ! -f "$file" ]; then
    complain "no such file"
    continue
  fi
  if n=$(WANT=$want count_line "$file") && [ "$n" -ne 1 ]; then
    complain "line occurs $n times, want exactly once: $want"
    continue
  fi
  if ! listed=$(go test -list . "$pkg" 2>&1); then
    complain "cannot list the tests of $pkg: $listed"
    continue
  fi
  clean=1
  for t in "${tests[@]}"; do
    if ! grep -qx "$t" <<<"$listed"; then
      complain "$pkg has no test named $t"
      clean=0
    elif ! go test -run "^$t\$" "$pkg" >/dev/null 2>&1; then
      complain "$t fails without the mutant"
      clean=0
    fi
  done
  [ "$clean" -eq 1 ] || continue

  cp "$file" "$file.orig"
  WANT=$want REPL=$repl mutate "$file"
  if ! out=$(go build ./... 2>&1 && go test -count=1 -run '^$' "$pkg" 2>&1); then
    complain "the mutant does not build: $out"
  else
    survivors=()
    for t in "${tests[@]}"; do
      if go test -count=1 -timeout 300s -run "^$t\$" "$pkg" >/dev/null 2>&1; then
        survivors+=("$t")
      fi
    done
    if [ "${#survivors[@]}" -gt 0 ]; then
      complain "mutant survives ${survivors[*]}: $want -> $repl"
    else
      echo "killed: $file: $want -> $repl (${tests[*]})"
    fi
  fi
  mv "$file.orig" "$file"
done < "$table"

if [ "$row" -eq 0 ]; then
  echo "no rows in $table" >&2
  exit 1
fi
exit "$bad"
