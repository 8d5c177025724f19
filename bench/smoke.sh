#!/usr/bin/env sh
# Smoke-runs every bench binary on a tiny workload (--nodes=4 --jobs=2).
# Benches that take no flags ignore the arguments. Intended for the asan
# preset: `cmake --preset asan && cmake --build --preset asan -j && \
#          bench/smoke.sh build-asan/bench`
# Any arguments after the bench directory are appended to every fleet bench
# invocation — CI's asan lane passes --validate=full so the three machine
# checkers run under the sanitizers on every smoke compile.
# Every fleet bench exits with its campaign verdict (bench::gate), so a
# failed record fails the smoke run. Exits non-zero if any bench failed.
set -eu

dir="${1:-build/bench}"
[ $# -gt 0 ] && shift
extra="$*"
if [ ! -d "$dir" ]; then
  echo "smoke.sh: bench directory '$dir' not found (build first?)" >&2
  exit 2
fi

status=0
for b in "$dir"/bench_*; do
  [ -x "$b" ] || continue
  echo "=== smoke: $(basename "$b") ==="
  case "$(basename "$b")" in
    bench_micro)
      # google-benchmark binary: rejects foreign flags; cap iteration time.
      flags="--benchmark_min_time=0.05" ;;
    bench_service)
      # Spawns real vccd daemons (cold/warm/restart/kill-one-shard arms);
      # keep the client/shard fan-out tiny for the smoke workload.
      flags="--nodes=4 --jobs=2 --clients=2 --shards=2 $extra" ;;
    *)
      flags="--nodes=4 --jobs=2 $extra" ;;
  esac
  # shellcheck disable=SC2086  # word splitting of $flags is intended
  if ! "$b" $flags > /dev/null; then
    echo "smoke.sh: $(basename "$b") FAILED" >&2
    status=1
  fi
done

# The rv32 stanza: every fleet bench once more on the second target, so a
# backend regression cannot hide behind the ppc default. bench_micro rejects
# foreign flags and bench_crosstarget iterates every registered target (and
# rejects --target), so both are skipped here.
for b in "$dir"/bench_*; do
  [ -x "$b" ] || continue
  case "$(basename "$b")" in
    bench_micro|bench_crosstarget) continue ;;
    bench_service)
      flags="--nodes=4 --jobs=2 --clients=2 --shards=2 --target=rv32 $extra" ;;
    *)
      flags="--nodes=4 --jobs=2 --target=rv32 $extra" ;;
  esac
  echo "=== smoke (rv32): $(basename "$b") ==="
  # shellcheck disable=SC2086
  if ! "$b" $flags > /dev/null; then
    echo "smoke.sh: $(basename "$b") --target=rv32 FAILED" >&2
    status=1
  fi
done

# The SSA stanza: every fleet bench once more through the SSA mid-end
# (build / GVN / LICM / rotation / unrolling / out-of-SSA), so a mid-end
# regression cannot hide behind the scalar default. bench_micro rejects
# foreign flags; bench_ablation_passes carries its own SSA arms (and
# rejects --ssa).
for b in "$dir"/bench_*; do
  [ -x "$b" ] || continue
  case "$(basename "$b")" in
    bench_micro|bench_ablation_passes) continue ;;
    bench_service)
      flags="--nodes=4 --jobs=2 --clients=2 --shards=2 --ssa $extra" ;;
    *)
      flags="--nodes=4 --jobs=2 --ssa $extra" ;;
  esac
  echo "=== smoke (ssa): $(basename "$b") ==="
  # shellcheck disable=SC2086
  if ! "$b" $flags > /dev/null; then
    echo "smoke.sh: $(basename "$b") --ssa FAILED" >&2
    status=1
  fi
done
exit $status
