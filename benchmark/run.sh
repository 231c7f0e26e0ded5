#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark; see benchmark/README.md.
#   bash benchmark/run.sh [--workload <name>|all] [--seed <u64>] [--trace]
#                         [--smoke] [--out <dir>]
#   bash benchmark/run.sh --selftest | --sweep | --baseline
exec python3 "$(dirname "$0")/run.py" "$@"
