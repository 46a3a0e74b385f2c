#!/usr/bin/env bash
# Every workload with tracing off, then the traced run, for one seed.
# Usage (from the repository root): bash bench/all.sh [seed] [seconds]
set -euo pipefail
seed="${1:-1}"
seconds="${2:-38}"
for workload in algebra steer convex; do
    echo "== $workload"
    python3 bench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0
done
echo "== traced run"
python3 bench/run.py --workload algebra --seed "$seed" --seconds "$seconds" --trace 1
