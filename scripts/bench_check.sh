#!/usr/bin/env bash
# bench_check.sh — CI guard that the repository's benchmark still builds,
# runs and models the same system: bench's own vet and tests, then every
# workload for one second, plain and traced. Each run must exit 0 and end
# in a result line with "correct":true; the plain run's model_digest must
# equal the seed-1 digest recorded in bench/README.md, ledger entry 1.
# Host rates are not gated: they do not repeat on shared runners.
set -euo pipefail
cd "$(dirname "$0")/.."

(cd bench && go vet ./... && go test ./...)

for w in serve-steady overload-sweep chaos-recover plan-churn; do
  want="$(grep -o "^- \`$w\`: \`model_digest\` \`[0-9a-f]\{64\}\`" bench/README.md | grep -o '[0-9a-f]\{64\}')" ||
    { echo "bench_check: no ledger digest for $w in bench/README.md" >&2; exit 1; }
  for t in 0 1; do
    echo "== $w --seed 1 --seconds 1 --trace $t =="
    out="$(bash bench/run.sh --workload "$w" --seed 1 --seconds 1 --trace "$t")" ||
      { echo "bench_check: $w --trace $t exited non-zero" >&2; exit 1; }
    last="${out##*$'\n'}"
    grep -q '"correct": *true' <<<"$last" ||
      { echo "bench_check: $w --trace $t: result line lacks \"correct\":true: $last" >&2; exit 1; }
    if [ "$t" = 0 ]; then
      grep -q "\"model_digest\": *\"$want\"" <<<"$out" ||
        { echo "bench_check: $w: model_digest differs from ledger entry 1 ($want)" >&2; exit 1; }
      echo "digest: ok ($want)"
    fi
  done
done
echo "bench_check: ok"
