#!/usr/bin/env python3
"""Fold a sigprof.so sample file by symbol and by crate::module.

Usage: symbolize.py SAMPLES [TOP_N] [--json] [--passes N] [--label KEY=VALUE]...

Text mode prints the two tables. `--json` prints one JSON object instead:
the sample count, the process's CPU seconds and the sample rate they give,
and per module and for the TOP_N symbols the samples per pass (all samples
divided by `--passes`, default 1) and the share of all samples; each
`--label KEY=VALUE` adds a top-level string field (commit, workload, seed).

A PC inside the main binary is named with `nm -C`, a PC inside a shared
library (libc `memmove`/`malloc`, libm `sin`) with `nm -D`; either only when
it falls inside the symbol's `nm -S` size, else `?` (a PC past a symbol's end,
in padding or an unnamed stub, is not charged to it). A main-binary symbol
with no size (hand-written assembly such as `sdr_coro_switch`) owns the PCs
up to the next symbol. The by-module table charges a library PC to
the module of the caller the sampler found on the stack; the by-symbol table
names that calling symbol — `libc.so.6:memcpy  <- alloc::vec::Vec<T,A>::push`
is a copy made by a push, not just somewhere in `alloc::vec`. No external
dependencies.
"""

import bisect
import collections
import json
import os
import re
import subprocess
import sys


def symbols(path, dynamic):
    out = subprocess.run(["nm", "-C", "-S", "-n", "--defined-only"] + (["-D"] if dynamic else []) + [path],
                         capture_output=True, text=True).stdout
    table = []
    for line in out.splitlines():
        m = re.match(r"([0-9a-f]+) (?:([0-9a-f]+) )?[tTwWiu] (.+)", line)
        if m:
            table.append((int(m[1], 16), int(m[2] or "0", 16), m[3]))
    return [s[0] for s in table], table


def unhashed(symbol):
    """`a::b::f::h0123456789abcdef` -> `a::b::f`."""
    return re.sub(r"::h[0-9a-f]{16}$", "", symbol)


def module(symbol):
    """`<a::b::T as c::Tr>::f` -> `a::b`, `a::b::f` -> `a::b` (hash suffix dropped)."""
    path = unhashed(symbol).lstrip("<&*mut ").split(" as ")[0].split("<")[0]
    parts = path.split("::")
    return "::".join(parts[:2]) if len(parts) > 2 else parts[0]


def main():
    args, flags, labels, passes = [], set(), [], 1
    argv = iter(sys.argv[1:])
    for arg in argv:
        if arg == "--json":
            flags.add(arg)
        elif arg == "--passes":
            passes = int(next(argv))
        elif arg == "--label":
            labels.append(next(argv).split("=", 1))
        else:
            args.append(arg)
    bases, pcs, cpu_s = {}, [], None
    for line in open(args[0]):
        f = line.split()
        if f[0] == "cpu_s":
            cpu_s = float(f[1])
        elif f[0] == "map":
            lo, hi = (int(x, 16) for x in f[1].split("-"))
            bases.setdefault(f[6], lo)  # first mapping of a file = its load base
            if "x" in f[2]:
                pcs.append((lo, hi, f[6]))
        else:
            pcs.append((int(f[0], 16), int(f[1], 16)))
    maps = sorted(m for m in pcs if len(m) == 3)
    exe, tables = maps[0][2], {}

    def name(pc):
        i = bisect.bisect(maps, (pc, float("inf"), "")) - 1
        if i < 0 or pc >= maps[i][1]:
            return None, "?"
        path = maps[i][2]
        if path not in tables:
            tables[path] = symbols(path, path != exe)
        starts, table = tables[path]
        j = bisect.bisect(starts, pc - bases[path]) - 1
        sizeless = path == exe and table[j][1] == 0
        inside = j >= 0 and (sizeless or pc - bases[path] < table[j][0] + max(table[j][1], 1))
        return path, table[j][2] if inside else "?"

    by_symbol, by_module, leaf = collections.Counter(), collections.Counter(), collections.Counter()
    samples = [s for s in pcs if len(s) == 2]
    for pc, caller in samples:
        path, sym = name(pc)
        if path == exe:
            by_symbol[sym] += 1
            by_module[module(sym)] += 1
        else:
            calling = unhashed(name(caller)[1]) if caller else "?"
            owner = module(calling)
            by_symbol[f"{os.path.basename(path or '?')}:{sym}  <- {calling}"] += 1
            by_module[owner] += 1
            leaf[owner] += 1
    top, total = int(args[1]) if len(args) > 1 else 25, len(samples)
    if "--json" in flags:
        def rows(counter, key, limit):
            return [{key: name, "samples_per_pass": round(n / passes, 1), "share": round(n / total, 4)}
                    for name, n in counter.most_common(limit)]
        doc = dict(labels)
        doc.update({
            "samples": total,
            "passes": passes,
            "cpu_s": cpu_s,
            "sample_rate_hz": round(total / cpu_s, 1) if cpu_s else None,
            "modules": rows(by_module, "module", None),
            "symbols": rows(by_symbol, "symbol", top),
        })
        print(json.dumps(doc))
        return
    print(f"{total} samples\n\nby crate::module (library leaves charged to their caller; of which leaf)")
    for key, n in by_module.most_common(top):
        print(f"{100 * n / total:6.2f}%  {n:7d}  {key}  ({leaf[key]} leaf)")
    print("\nby symbol (library leaves named with their calling symbol)")
    for key, n in by_symbol.most_common(top):
        print(f"{100 * n / total:6.2f}%  {n:7d}  {key}")


main()
