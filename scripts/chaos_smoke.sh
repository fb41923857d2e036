#!/usr/bin/env bash
# chaos_smoke.sh — CI gate for the chaos engine: run every bundled
# scenario twice with the same seed under the race detector, require
# the self-healing availability bar (the binary exits non-zero below
# 99%), and diff the two reports byte-for-byte to catch any
# nondeterminism regression.
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${CHAOS_SEED:-7}"
BIN="$(mktemp -d)/continuum-sim"
trap 'rm -rf "$(dirname "$BIN")"' EXIT

go build -race -o "$BIN" ./cmd/continuum-sim

for sc in $("$BIN" chaos -list); do
  echo "== chaos $sc -seed $SEED =="
  "$BIN" chaos "$sc" -seed "$SEED" | tee "$BIN.$sc.1"
  "$BIN" chaos "$sc" -seed "$SEED" > "$BIN.$sc.2"
  if ! diff -u "$BIN.$sc.1" "$BIN.$sc.2"; then
    echo "chaos: $sc is nondeterministic for seed $SEED" >&2
    exit 1
  fi
  echo "determinism: ok"
done

# Stateful arm: checkpoint/restore must deliver RPO=0 (the binary exits
# non-zero on any lost item or state divergence from the fault-free
# reference), RTO p95 must stay under the 5s bar, and the stateful
# reports must be byte-deterministic too.
RTO_BAR_S=5
for sc in $("$BIN" chaos -list); do
  case "$sc" in
    # Harness scenarios (multi-arm experiments with their own gates and
    # render shapes) run in the plain loop above; the per-line RPO/RTO
    # greps below only fit the single-run stateful report. gray-fail and
    # split-brain have stateful gates of their own (grayfail_smoke.sh,
    # splitbrain_smoke.sh).
    gray-fail|noisy-neighbor|planned-drain|split-brain) continue ;;
  esac
  echo "== chaos $sc -stateful -seed $SEED =="
  "$BIN" chaos "$sc" -stateful -seed "$SEED" | tee "$BIN.$sc.s1"
  "$BIN" chaos "$sc" -stateful -seed "$SEED" > "$BIN.$sc.s2"
  if ! diff -u "$BIN.$sc.s1" "$BIN.$sc.s2"; then
    echo "chaos: $sc -stateful is nondeterministic for seed $SEED" >&2
    exit 1
  fi
  grep -q 'rpo_items=0 ' "$BIN.$sc.s1" || {
    echo "chaos: $sc -stateful reports nonzero RPO" >&2; exit 1; }
  grep -q 'divergent=0$' "$BIN.$sc.s1" || {
    echo "chaos: $sc -stateful diverged from the fault-free reference" >&2; exit 1; }
  rto_p95=$(sed -n 's/.*rto_p95=\([0-9.]*\)\(m\{0,1\}s\).*/\1 \2/p' "$BIN.$sc.s1")
  read -r rto_val rto_unit <<<"$rto_p95"
  [ "$rto_unit" = "ms" ] && rto_val=$(awk "BEGIN{print $rto_val/1000}")
  awk "BEGIN{exit !($rto_val > 0 && $rto_val < $RTO_BAR_S)}" || {
    echo "chaos: $sc -stateful rto_p95=$rto_p95 outside (0, ${RTO_BAR_S}s)" >&2; exit 1; }
  echo "stateful: rpo=0 rto_p95=${rto_val}s divergence=0 determinism: ok"
done
