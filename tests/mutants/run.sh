#!/usr/bin/env bash
# Committed mutants: each `*.patch` beside this script is one small,
# deliberate fault in a library crate. Its `Must-fail:` header line names
# the tests (space-separated) that must catch it, `Package:` names the
# crate whose tests those are (`bltc-core` when absent; `bltc` is the
# facade, whose `tests/*.rs` are the integration suites), `Test:` names
# the integration-test target they live in (the package's library tests,
# named by module path, when absent), and `Needs: avx512f` marks a fault
# in code that only an AVX-512F host runs.
#
# For each patch (all of them, or the ones given as arguments) this copies
# the tracked files of the checkout into a scratch tree, applies the patch
# there, builds the package's library tests (or its `Test:` target) and
# runs each named test on its own. It fails if a patch no longer applies
# or applies only at an offset from its recorded line numbers, if a
# mutant does not compile, or if a named test passes or does not exist. A mutant that survives is a missing test, never an expected
# result.
#
#   tests/mutants/run.sh [tests/mutants/NAME.patch ...]
#
# MUTANTS_WORK sets the scratch directory (default: a fresh temporary one);
# the builds share one target directory inside it.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
work=${MUTANTS_WORK:-$(mktemp -d)}
export CARGO_TARGET_DIR=$work/target
has_avx512f=$(grep -c -m1 avx512f /proc/cpuinfo || true)
if [ $# -eq 0 ]; then
    set -- "$root"/tests/mutants/*.patch
fi

status=0
for patch in "$@"; do
    patch=$(realpath "$patch")
    name=$(basename "$patch" .patch)
    tests=$(sed -n 's/^Must-fail: *//p' "$patch")
    package=$(sed -n 's/^Package: *//p' "$patch")
    package=${package:-bltc-core}
    target=$(sed -n 's/^Test: *//p' "$patch")
    if [ -n "$target" ]; then
        tests_of=(--test "$target")
    else
        tests_of=(--lib)
    fi
    if [ -z "$tests" ]; then
        echo "::error::$name: no Must-fail header"
        status=1
        continue
    fi
    if grep -q '^Needs: avx512f' "$patch" && [ "$has_avx512f" = 0 ]; then
        echo "$name: not run, this host has no avx512f and never executes the mutated code"
        continue
    fi
    # A fresh tree per mutant, every file stamped now (`tar -m`), so that
    # cargo rebuilds from this tree and never reuses another mutant's build.
    tree=$work/tree
    rm -rf "$tree"
    mkdir -p "$tree"
    (cd "$root" && git ls-files -z | xargs -0 tar -cf -) | tar -xmf - -C "$tree"
    if ! applied=$(cd "$tree" && git apply -v "$patch" 2>&1); then
        echo "$applied"
        echo "::error::$name: the patch no longer applies"
        status=1
        continue
    fi
    if grep -q "offset" <<<"$applied"; then
        echo "$applied"
        echo "::error::$name: the patch applies only at an offset; refresh its line numbers"
        status=1
        continue
    fi
    if ! (cd "$tree" && cargo test -q -p "$package" "${tests_of[@]}" --no-run); then
        echo "::error::$name: the mutant does not compile"
        status=1
        continue
    fi
    for t in $tests; do
        out=$(cd "$tree" && cargo test -p "$package" "${tests_of[@]}" -- --exact "$t" 2>&1 || true)
        if grep -qF "test $t ... FAILED" <<<"$out"; then
            echo "$name: killed by $t"
        else
            echo "$out" | tail -n 5
            echo "::error::$name: survives $t (or no such test)"
            status=1
        fi
    done
done
exit $status
