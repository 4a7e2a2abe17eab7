#!/usr/bin/env bash
# Non-test line count per crate and in total under crates/*/src.
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`
# marker (the whole file when it has none). Blank and comment lines
# count; test-only files under tests/ and benches/ are not scanned.
# Informational only: it prints figures and never fails a build.
#
#   scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
    src="${crate}src"
    [ -d "$src" ] || continue
    n=$(find "$src" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { c++ }
        END { print c + 0 }
    ')
    printf '%-16s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-16s %6d\n' total "$total"
