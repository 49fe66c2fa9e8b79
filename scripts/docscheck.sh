#!/usr/bin/env sh
# Docs reference check: every backticked repo path mentioned in the
# top-level docs must exist, so README/DESIGN can't silently rot as
# files move. A "repo path" is a backticked token made of
# [A-Za-z0-9_./-] that either contains a slash or ends in a known file
# extension; command lines (contain spaces), flags, Go identifiers
# (dots without slashes), globs and `./...` wildcards are ignored.
#
# It also requires every numbered benchmark baseline the docs cite
# (BENCH_N.json) to be the one the CI bench job gates on, so the docs
# can't keep pointing at a superseded snapshot.
set -e
cd "$(dirname "$0")/.."
fail=0
for doc in README.md DESIGN.md; do
  refs=$(grep -o '`[^`]*`' "$doc" | tr -d '`' \
    | grep -E '^[A-Za-z0-9_./-]+$' \
    | grep -E '/|\.(go|md|sh|json|yml|csv)$' \
    | grep -v '\.\.\.' \
    | grep -vE '^(https?|github\.com|golang\.org|honnef\.co|harvsim-)' \
    | sort -u)
  for r in $refs; do
    p=${r%/}
    if [ ! -e "$p" ]; then
      echo "$doc: referenced path does not exist: $r" >&2
      fail=1
    fi
  done
done
gated=$(grep -oE 'baseline BENCH_[0-9]+\.json' .github/workflows/ci.yml | sed 's/^baseline //' | sort -u)
if [ "$(echo "$gated" | grep -c .)" -ne 1 ]; then
  echo "ci.yml: want exactly one gated BENCH_N.json baseline, found: $gated" >&2
  fail=1
fi
for doc in README.md DESIGN.md; do
  for b in $(grep -oE 'BENCH_[0-9]+\.json' "$doc" | sort -u); do
    if [ "$b" != "$gated" ]; then
      echo "$doc: cites $b, but CI gates on $gated" >&2
      fail=1
    fi
  done
done
if [ "$fail" -eq 0 ]; then
  echo "docscheck: all referenced paths exist; docs cite the gated baseline $gated"
fi
exit $fail
