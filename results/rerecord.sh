#!/usr/bin/env bash
# Re-record the result store from scratch: every results/*.jsonl line is the
# output of this recipe at default scale, seed 7 (6.5 min of summed
# `elapsed_s`, 4 min wall at 2 jobs on the host that recorded the tree).
# Simulated rows are deterministic by seed, so running it again on the same
# commit reproduces them exactly; memfootprint, calibrate and the
# `--backend realtime` record are host measurements and do not.
#
#   results/rerecord.sh [RESULTS_DIR]     (default: results)
#
# Into the committed store it also rewrites EXPERIMENTS.md; the results-fresh
# CI job points it at a temp dir and compares rows against the tree instead.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
out="${1:-results}"

# Orphan shards of an interrupted `--jobs` sweep would be merged back in as
# "already recorded" points, so they go with the store.
rm -f "$out"/*.jsonl
rm -rf "$out"/.shards
repro() { python -m repro "$@" --results-dir "$out" --jobs 2; }

# Every registered driver at its own configuration (host-measuring drivers
# run inline, outside the pool).
repro run --all
# The sweeps the report's cross-experiment sections are made of.  A point
# that is a driver's bare configuration (--protocol fireledger, n=10 w=1 of
# geo-5region, equivocate x fireledger) resumes against the run above.
repro sweep scenario:paper-lan --protocol fireledger,hotstuff,bftsmart
repro sweep scenario:paper-lan --lanes 4
repro sweep scenario:paper-lan --cluster-sizes 7
repro sweep scenario:paper-lan --backend realtime
repro sweep scenario:flash-crowd --lanes 2,4
repro sweep scenario:byzantine-minority --lanes 4
repro sweep scenario:rolling-crash --lanes 4
repro sweep scenario:geo-5region --cluster-sizes 5,10 --workers 1,2
repro sweep scenario:adversary-gauntlet \
    --adversary equivocate,targeted-equivocate,silent,delayed-release,selective-omission,churn \
    --protocol fireledger,hotstuff,bftsmart
repro sweep fig10 --cluster-sizes 140,200 --workers 1,4 --batch-sizes 1000

if [ "$out" = results ]; then
    python -m repro report
fi
