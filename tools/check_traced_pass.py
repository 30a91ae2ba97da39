#!/usr/bin/env python3
"""Gate on one traced driver-mode run of the benchmark.

Usage: check_traced_pass.py RESULT.json [METRIC=VALUE | METRIC>=VALUE ...]

RESULT.json is the last stdout line of
`sdr_benchmark --workload W --seed N --seconds 1 --trace 1`. Fails unless no
job failed its checks, virtual times, message counts and checksums match
benchmark/reference/sim_digest.json (`sim.digest_match` = 1) and repeat
between the two exact passes (`sim.counts_repeat` = 1), and every METRIC
named on the command line reads exactly VALUE (`=`) or at least VALUE
(`>=`, for ratios measured from host time). Run by the CI
`benchmark-surface` job. No external dependencies.
"""

import json
import sys

path, extra = sys.argv[1], sys.argv[2:]
run = json.load(open(path))
metrics = {name: m["value"] for name, m in run["metrics"].items()}
assert run["correct"] and run["failed"] == 0, (
    f"{run['failed']} of {run['attempted']} jobs failed their checks")
assert metrics["sim.digest_match"] == 1, (
    "virtual times, message counts or checksums moved against "
    "benchmark/reference/sim_digest.json")
assert metrics["sim.counts_repeat"] == 1, (
    "virtual times, message counts or checksums differ between "
    "two exact passes of the same queue")
for pair in extra:
    name, at_least, want = pair.partition(">=")
    if at_least:
        assert metrics[name] >= float(want), f"{name} = {metrics[name]}, below {want}"
    else:
        name, want = pair.split("=")
        assert metrics[name] == float(want), f"{name} = {metrics[name]}, not {want}"
print(f"{path}: {run['attempted']} jobs, none failed; digest matches; "
      f"counts repeat{''.join('; ' + pair for pair in extra)}")
