#!/usr/bin/env bash
# Lines of Rust per crate, and of the three long documents.
#
# Usage: scripts/size.sh           print the table
#        scripts/size.sh --check   print it, then fail when a crate's
#                                  production lines or the documents' lines
#                                  exceed their line in size.budget
#
# prod: lines under src/ outside `#[cfg(test)]` modules (binaries included);
# test: those modules plus tests/ (the root tests/ belong to crates/core);
# doc:  the `///` and `//!` lines among prod.
# `examples/` is a row of its own. A change that grows a number raises its
# budget line in the same diff.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints "prod test doc" over the .rs files named on stdin. A test module
# is an unindented-or-indented `mod x {` under `#[cfg(test)]`, and it ends
# at the first `}` at the `mod` line's indentation (the code is rustfmt'ed).
count() {
  local files
  files=$(cat)
  [ -n "$files" ] || { echo "0 0 0"; return; }
  # shellcheck disable=SC2086
  awk '
    FNR == 1 { intest = 0; held = 0 }
    intest { test++; if ($0 == end) intest = 0; next }
    held && /^[ \t]*#\[/ { held++; next }
    held && /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{$/ {
      match($0, /^[ \t]*/)
      end = substr($0, 1, RLENGTH) "}"
      test += held + 1; held = 0; intest = 1; next
    }
    held { prod += held; held = 0 }
    /^[ \t]*#\[cfg\(test\)\]$/ { held = 1; next }
    { prod++ }
    /^[ \t]*\/\/[\/!]/ { doc++ }
    END { printf "%d %d %d\n", prod, test + 0, doc + 0 }
  ' $files
}

rows=()
for dir in crates/*; do
  name=$(basename "$dir")
  read -r prod test doc < <(find "$dir/src" -name '*.rs' | sort | count)
  more=$(find "$dir" -path "$dir/src" -prune -o -name '*.rs' -print)
  if [ "$name" = core ]; then more="$more $(find tests -name '*.rs')"; fi
  # shellcheck disable=SC2086
  test=$((test + $(cat /dev/null $more | wc -l)))
  rows+=("$name $prod $test $doc")
done
read -r prod test doc < <(find examples -name '*.rs' | sort | count)
rows+=("examples $prod $test $doc")
docs=$(cat DESIGN.md EXPERIMENTS.md README.md | wc -l)

printf '%-16s %7s %7s %7s\n' crate prod test doc
tp=0 tt=0 td=0
for row in "${rows[@]}"; do
  read -r name prod test doc <<< "$row"
  printf '%-16s %7d %7d %7d\n' "$name" "$prod" "$test" "$doc"
  tp=$((tp + prod)) tt=$((tt + test)) td=$((td + doc))
done
printf '%-16s %7d %7d %7d\n' total "$tp" "$tt" "$td"
printf '%-16s %7d   (DESIGN.md + EXPERIMENTS.md + README.md)\n' docs "$docs"

[ "${1:-}" = --check ] || exit 0
over=0
while read -r name limit; do
  case "$name" in ''|'#'*) continue ;; esac
  if [ "$name" = docs ]; then
    have=$docs
  else
    have=$(printf '%s\n' "${rows[@]}" | awk -v n="$name" '$1 == n { print $2 }')
  fi
  [ -n "$have" ] || { echo "size.budget names '$name', which is not a row"; over=1; continue; }
  if [ "$have" -gt "$limit" ]; then
    echo "size: $name has $have lines, its budget is $limit (raise it in size.budget, in this diff)"
    over=1
  fi
done < size.budget
for row in "${rows[@]}"; do
  name=${row%% *}
  grep -q "^$name " size.budget || { echo "size: $name has no line in size.budget"; over=1; }
done
exit "$over"
