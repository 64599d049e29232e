#!/bin/sh
# Production vs test line counts of the Rust sources, per crate.
#
# Production = lines of `src/**/*.rs` before the file's first top-level
# `#[cfg(test)]`; test = the rest of those files plus everything under the
# crate's `tests/` and `benches/`. Raw lines, comments and blanks included —
# the numbers ROADMAP.md quotes. The last row leaves out `benchmark/`, whose
# frozen harness no change to the program moves. `tools/loc.sh FILE...`
# prints the same split for single files instead.
#
# Informational: prints, never fails on a threshold.
set -eu
cd "$(dirname "$0")/.."

split() { # prints "<production> <test>" summed over the files on stdin
    xargs -r awk '
        FNR == 1 { in_test = 0 }
        /^#\[cfg\(test\)\]/ { in_test = 1 }
        { if (in_test) test++; else prod++ }
        END { print prod + 0, test + 0 }'
}

if [ "$#" -gt 0 ]; then
    for file in "$@"; do
        set -- $(echo "$file" | split)
        printf '%-44s %6d production %6d test\n' "$file" "$1" "$2"
    done
    exit 0
fi

printf '%-24s %10s %8s\n' crate production test
total_prod=0
total_test=0
bench_prod=0
bench_test=0
for dir in . crates/* crates/shims/* benchmark; do
    [ -f "$dir/Cargo.toml" ] && [ -d "$dir/src" ] || continue
    set -- $(find "$dir/src" -name '*.rs' | split)
    extra=$(find "$dir/tests" "$dir/benches" "$dir/examples" -maxdepth 1 -name '*.rs' 2>/dev/null |
        xargs -r cat | wc -l)
    name=${dir#crates/}
    [ "$dir" = . ] && name="(root)"
    printf '%-24s %10d %8d\n' "$name" "$1" "$(($2 + extra))"
    total_prod=$((total_prod + $1))
    total_test=$((total_test + $2 + extra))
    if [ "$dir" = benchmark ]; then
        bench_prod=$1
        bench_test=$(($2 + extra))
    fi
done
printf '%-24s %10d %8d\n' total "$total_prod" "$total_test"
printf '%-24s %10d %8d\n' "outside benchmark/" \
    "$((total_prod - bench_prod))" "$((total_test - bench_test))"
