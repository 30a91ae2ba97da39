#!/usr/bin/env bash
# reach.sh — list the workspace functions that no binary links.
#
# Builds every binary in debug from a fresh target dir (the nine
# crates/bench bins, the examples and benchmark/'s sdr_benchmark), takes the
# `T` symbols of each workspace rlib with `nm -C`, subtracts every symbol
# linked into those binaries, and prints what is left that
# tools/reach/allowlist.txt does not name, and every allowlist entry that
# names nothing left. Exits 1 if anything is printed.
#
#   tools/reach/reach.sh              # fresh target dir under $TMPDIR, removed on exit
#   REACH_TARGET_DIR=DIR tools/reach/reach.sh   # build into DIR (kept; must be empty or a previous reach build)
#
# See tools/reach/README.md for what the method cannot see.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
allowlist="$root/tools/reach/allowlist.txt"

if [[ -n "${REACH_TARGET_DIR:-}" ]]; then
  target="$REACH_TARGET_DIR"
  mkdir -p "$target"
else
  target="$(mktemp -d "${TMPDIR:-/tmp}/reach.XXXXXX")"
  trap 'rm -rf "$target"' EXIT
fi
work="$target/reach"
mkdir -p "$work"

# Debug, not release: without optimisation every non-generic function keeps
# an out-of-line body, so "not linked" means "not called", not "inlined".
export CARGO_TARGET_DIR="$target"
cargo build --offline --quiet --manifest-path "$root/Cargo.toml" --workspace --bins --examples
cargo build --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"

# The workspace's own crates (the root umbrella crate and vendor/ excluded).
crates=(sdr_core sim_net sim_mpi repl_baselines workloads sdr_bench)
crate_re="$(IFS='|'; echo "${crates[*]}")"

# Symbol names without the legacy-mangling `::h<16 hex>` hash, so the copies
# of one function in two builds (workspace and benchmark) compare equal.
strip_hash() { sed -E 's/::h[0-9a-f]{16}$//'; }

# Defined text symbols of the workspace rlibs whose path starts with a
# workspace crate: free functions, inherent methods and their closures.
# Trait impls (`<SimTime as core::ops::Add>::add`, derives) are left out,
# since a vtable or a derive links them whether or not anything calls them,
# and so are monomorphised std generics (`core::ptr::drop_in_place<…>`).
defined="$work/defined.txt"
: >"$defined"
for crate in "${crates[@]}"; do
  for rlib in "$target"/debug/deps/lib"$crate"-*.rlib; do
    nm -C --defined-only "$rlib" 2>/dev/null | awk '$2 == "T" { $1 = ""; $2 = ""; sub(/^  /, ""); print }'
  done
done | strip_hash | grep -E "^($crate_re)::" | sort -u >"$defined"

# Everything linked into the binaries, whatever its symbol type: the
# crates/bench bins, the examples and the benchmark.
linked="$work/linked.txt"
bins=("$target/debug/sdr_benchmark")
for src in "$root"/crates/bench/src/bin/*.rs; do
  bins+=("$target/debug/$(basename "$src" .rs)")
done
for src in "$root"/examples/*.rs; do
  bins+=("$target/debug/examples/$(basename "$src" .rs)")
done
echo "reach: ${#bins[@]} binaries" >&2
for bin in "${bins[@]}"; do
  nm -C --defined-only "$bin" | awk '{ $1 = ""; $2 = ""; sub(/^  /, ""); print }'
done | strip_hash | sort -u >"$linked"

# An allowlist entry is `path  # reason`. A path names one function, or a
# module (ending in `::`) whose every function is allowed.
allowed="$work/allowed.txt"
sed -E 's/#.*//; s/[[:space:]]+$//; s/^[[:space:]]+//; /^$/d' "$allowlist" | sort -u >"$allowed"

unlinked="$work/unlinked.txt"
comm -23 "$defined" "$linked" >"$unlinked"

# Unlinked functions no entry names, then entries that name no unlinked
# function (deleted, renamed, or linked by a binary now): both fail.
report="$work/report.txt"
awk -v allowed="$allowed" '
  BEGIN { while ((getline line < allowed) > 0) allow[line] = 0 }
  {
    sym = $0
    # A closure is covered by the function that encloses it.
    fn = sym
    sub(/::\{\{closure\}\}.*$/, "", fn)
    if (fn in allow) { allow[fn]++; next }
    for (a in allow) if (a ~ /::$/ && index(fn, a) == 1) { allow[a]++; next }
    print sym
  }
  END { for (a in allow) if (allow[a] == 0) print "stale allowlist entry: " a }' "$unlinked" >"$report"

n="$(wc -l <"$report")"
if [[ "$n" -gt 0 ]]; then
  cat "$report"
  echo "reach: $n line(s) above: each unlinked function needs a tools/reach/allowlist.txt entry (or deletion), each stale entry needs removing" >&2
  exit 1
fi
echo "reach: every workspace function is linked by a binary or allowlisted ($(wc -l <"$allowed") allowlist entries)" >&2
