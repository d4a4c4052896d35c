#!/bin/sh
# Bench smoke gate: runs bench_e1 --json on a deliberately small workload and
# fails when any configuration's clk_cycles_per_sec regresses more than the
# allowed fraction below the checked-in floor (bench/e1_smoke_floor.json), or
# when its kernel activation count exceeds the checked-in ceiling.  It needs
# only the bench_e1_cosim_speed target built.
#
# The floors are conservative (well under the measured rates on the reference
# host) so routine machine noise passes; a >25% drop — the kind an accidental
# O(n) regression in the kernel hot path produces — fails CI.
#
#   scripts/bench_smoke.sh
#
# Environment:
#   BUILD_DIR             build tree with bench binaries (default: build)
#   CASTANET_E1_CELLS     cells per port for the smoke run (default: 400)
#   CASTANET_E1_REPS      repetitions (default: 3)
#   SMOKE_FLOOR           E1 floor file (default: bench/e1_smoke_floor.json)
set -eu

cd "$(dirname "$0")/.."
BUILD=${BUILD_DIR:-build}
FLOOR=${SMOKE_FLOOR:-bench/e1_smoke_floor.json}
: "${CASTANET_E1_CELLS:=400}"
: "${CASTANET_E1_REPS:=3}"
export CASTANET_E1_CELLS CASTANET_E1_REPS

bin="$BUILD/bench/bench_e1_cosim_speed"
if [ ! -x "$bin" ]; then
  echo "bench_smoke: missing $bin (build the bench targets first)" >&2
  exit 1
fi
if ! command -v python3 >/dev/null 2>&1; then
  echo "bench_smoke: python3 unavailable; cannot compare against floors" >&2
  exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== bench_e1 smoke (cells=$CASTANET_E1_CELLS reps=$CASTANET_E1_REPS)"
"$bin" --json "$tmp/e1.json"

python3 - "$tmp/e1.json" "$FLOOR" <<'PY'
import json, sys

result = json.load(open(sys.argv[1]))
floor = json.load(open(sys.argv[2]))
allowed = floor.get("allowed_regression", 0.25)
floors = floor["floors_clk_cycles_per_sec"]

ceilings = floor.get("ceilings_kernel_activations", {})

measured = {}
activations = {}
for row in result["rows"]:
    key = row["config"].split(":", 1)[0].strip()
    measured[key] = row["metrics"]["clk_cycles_per_sec"]
    activations[key] = row["metrics"].get("kernel_activations")

failures = []
for key, base in floors.items():
    limit = base * (1.0 - allowed)
    got = measured.get(key)
    if got is None:
        failures.append(f"config {key}: missing from bench output")
        continue
    verdict = "OK" if got >= limit else "REGRESSION"
    print(f"  {key:3s} {got:12.0f} cps  (floor {base:.0f}, "
          f"limit {limit:.0f})  {verdict}")
    if got < limit:
        failures.append(
            f"config {key}: {got:.0f} cps is below {limit:.0f} "
            f"({(1 - got / base) * 100:.1f}% under the floor)")

# Activations are deterministic per configuration: exceeding the ceiling
# means activity gating stopped suppressing wakeups (a semantic
# scheduling regression), independent of machine speed.
for key, ceiling in ceilings.items():
    got = activations.get(key)
    if got is None:
        failures.append(f"config {key}: kernel_activations missing")
        continue
    verdict = "OK" if got <= ceiling else "REGRESSION"
    print(f"  {key:3s} {got:12.0f} activations  (ceiling {ceiling})  "
          f"{verdict}")
    if got > ceiling:
        failures.append(
            f"config {key}: {got:.0f} kernel activations exceed the "
            f"ceiling {ceiling} (activity-gating regression)")

if failures:
    print("bench_smoke: FAIL", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("bench_smoke: all configs within budget")
PY
