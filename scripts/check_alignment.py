#!/usr/bin/env python3
"""Check that the hot functions of a dlb binary start on a cache line.

Usage: check_alignment.py BINARY

The sources that hold the round's hot loops are compiled with
-falign-functions=64 -falign-loops=64 (CMakeLists.txt), because their
speed moved with their placement mod 64 whenever unrelated code changed
size. This script reads the symbol table with `nm -C` and fails (exit 1)
when a function of HOT_FUNCTIONS below is missing from BINARY or any
of its symbols sits at an address that is not 0 mod 64. A function's
symbols are every defined text symbol whose demangled name starts with
`NAME(`: each overload, each compiler clone (.isra, .constprop) and each
lambda defined inside it, and the `with_topology` instantiation over such
a lambda, where GCC inlines a kernel's per-topology bodies (the
`scatter_range` instantiations of a `decide_range`). The `.cold` splits
GCC moves out of line are not aligned and are excepted.

Run it on dlb_perfbench (Release), the binary whose end-to-end numbers
the placement moves:

  cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
  cmake --build build-perfbench
  python3 scripts/check_alignment.py build-perfbench/dlb_perfbench

Stdlib only.
"""

import argparse
import subprocess
import sys

# One name per hot function, grouped by the pinned source that defines it.
HOT_FUNCTIONS = [
    # src/core/engine.cpp
    "dlb::Engine::do_step",
    "dlb::Engine::do_step_parallel",
    "dlb::Engine::step_plan",
    # src/core/fairness.cpp
    "dlb::FairnessAuditor::on_step",
    # src/core/round_plan.cpp
    "dlb::RoundPlan::decide",
    "dlb::RoundPlan::decide_multi_touch",
    "dlb::RoundPlan::decide_gather",
    "dlb::RoundPlan::receive",
    "dlb::RoundPlan::finish",
    # src/shard/sharded_engine.cpp
    "dlb::ShardedEngine::step",
    "dlb::ShardedEngine::decide_shard",
    "dlb::ShardedEngine::drain_flows",
    # src/balancers/send_floor.cpp
    "dlb::SendFloor::decide_range",
    # src/balancers/rotor_router.cpp
    "dlb::RotorRouter::decide_range",
    # src/dynamics/workload.cpp
    "dlb::WorkloadTally::apply_filled",
    "dlb::PoissonWorkload::fill",
    "dlb::poisson_fill::scalar",
    "dlb::poisson_fill::avx2",
    "dlb::poisson_fill::avx512",
    # src/markov/spectral.cpp
    "dlb::spectral_gap",
]

ALIGN = 64

# How a with_topology instantiation over a lambda of NAME demangles.
WITH_TOPOLOGY = "decltype(auto) dlb::with_topology<"


def text_symbols(binary):
    """(address, demangled name) of every defined text symbol."""
    try:
        out = subprocess.run(["nm", "-C", "--defined-only", binary],
                             check=True, capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"error: cannot read symbols of {binary}: {e}")
    symbols = []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3 or parts[1] not in ("t", "T", "W", "w"):
            continue
        symbols.append((int(parts[0], 16), parts[2]))
    return symbols


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("binary")
    args = ap.parse_args()
    symbols = text_symbols(args.binary)
    failed = False
    for name in HOT_FUNCTIONS:
        mine = [(addr, sym) for addr, sym in symbols
                if (sym.startswith(name + "(") or
                    sym.startswith(WITH_TOPOLOGY + name + "("))
                and "[clone .cold" not in sym]
        if not mine:
            print(f"MISSING    {name}")
            failed = True
            continue
        for addr, sym in mine:
            ok = addr % ALIGN == 0
            failed |= not ok
            print(f"{'ok' if ok else 'MISALIGNED':10} {addr:#x} mod {ALIGN} = "
                  f"{addr % ALIGN:2}  {sym}")
    if failed:
        print(f"error: hot functions of {args.binary} are missing or not at "
              f"0 mod {ALIGN}", file=sys.stderr)
        return 1
    print(f"{len(HOT_FUNCTIONS)} hot functions, every symbol at 0 mod {ALIGN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
