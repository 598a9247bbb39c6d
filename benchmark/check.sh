#!/usr/bin/env bash
# Smoke check of the benchmark itself: the registry obeys the
# BENCHMARK.json contract, BENCHMARK.json is the registry, every
# declared metric is printed, and quick-mode results repeat. Release
# mode, because the quick runs still launch the full 102,400-flow spike
# wave. CI may adopt this as-is.
set -euo pipefail
cd "$(dirname "$0")"
exec cargo test --release --offline
