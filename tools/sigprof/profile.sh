#!/usr/bin/env bash
# Profile one benchmark workload of this checkout with the SIGPROF sampler
# and print the attribution as one JSON line (symbolize.py --json): samples
# per pass by crate::module and for the top symbols, with the commit, the
# host's cores, the seed and the measured sample rate.
#
#   tools/sigprof/profile.sh WORKLOAD SEED [SECONDS] > profile.json
#
# Run from the repository root (the benchmark reads BENCHMARK.json and its
# digest file from there). It builds tools/sigprof/sigprof.so and the
# benchmark, runs the benchmark's measuring child (`--child run`, SECONDS of
# passes, default 15) under LD_PRELOAD, and folds the child's samples. The
# sample file and the child's log are left in $SIGPROF_DIR (default: a
# fresh temporary directory), which is printed on stderr. x86-64 Linux only.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: tools/sigprof/profile.sh WORKLOAD SEED [SECONDS]" >&2
  exit 2
fi
workload=$1 seed=$2 seconds=${3:-15}
here=$(cd "$(dirname "$0")" && pwd)
dir=${SIGPROF_DIR:-$(mktemp -d)}
mkdir -p "$dir"

gcc -O2 -shared -fPIC -o "$here/sigprof.so" "$here/sigprof.c"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

SIGPROF_OUT="$dir/samples.%p" LD_PRELOAD="$here/sigprof.so" \
  benchmark/target/release/sdr_benchmark --child run --workload "$workload" \
  --seed "$seed" --seconds "$seconds" --trace 0 >"$dir/child.log" 2>&1
# One process ran under the sampler; take its file even if a wrapper left
# another.
samples=$(ls -S "$dir"/samples.* | head -n 1)
passes=$(grep -c '^\[sdr_benchmark\] pass ' "$dir/child.log")
echo "sigprof: $passes passes, samples in $samples" >&2

python3 "$here/symbolize.py" "$samples" 25 --json --passes "$passes" \
  --label "commit=$(git describe --always --dirty)" \
  --label "host_cores=$(nproc)" \
  --label "workload=$workload" \
  --label "seed=$seed"
