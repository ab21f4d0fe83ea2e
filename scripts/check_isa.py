#!/usr/bin/env python3
"""Check that only the dispatched AVX-512 kernels of a dlb binary use AVX-512.

Usage: check_isa.py BINARY

dlb runs on AVX2-only hosts. Its AVX-512 code lives in kernels that are
compiled for AVX-512 by a function attribute and called only after a
run-time CPU check (util/simd.hpp). A file compiled with -mavx512* would
instead let the compiler put EVEX instructions anywhere in it, including
header inline functions that the linker may keep for every caller, and
the binary would fault on an AVX2-only host. This script disassembles
BINARY with `objdump -d -C` and fails (exit 1) when an instruction of any
function outside ALLOWED below
  * names a zmm register, an opmask register %k0-%k7, or xmm16-31 /
    ymm16-31, or
  * is EVEX-encoded (its first byte, after an optional 0x67 prefix, is
    0x62: in 64-bit mode that byte only starts an EVEX prefix),
which covers EVEX masking ({%k1}, {z}) as well. It also fails when a
function of ALLOWED is missing, so a renamed kernel cannot slip out of
the list. A function's symbols are those whose demangled name starts with
`NAME(`, compiler clones (.isra, .cold) included.

Run it on dlb_perfbench (Release), the benchmark binary:

  cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
  cmake --build build-perfbench
  python3 scripts/check_isa.py build-perfbench/dlb_perfbench

Stdlib only.
"""

import argparse
import re
import subprocess
import sys

# The dispatched AVX-512 kernels, by the source that defines them.
ALLOWED = [
    # src/dynamics/workload.cpp
    "dlb::poisson_fill::avx512",
]

FUNCTION = re.compile(r"^[0-9a-f]+ <(.*)>:$")
# address, raw bytes, mnemonic and operands; continuation lines of a long
# instruction carry no mnemonic and do not match.
INSTRUCTION = re.compile(r"^\s*[0-9a-f]+:\t([0-9a-f]{2}(?: [0-9a-f]{2})*)\s*\t(.*)$")
AVX512_OPERAND = re.compile(r"%zmm\d|%k[0-7]\b|%[xy]mm(?:1[6-9]|2\d|3[01])\b")


def is_avx512(raw, text):
    """True for an EVEX-encoded instruction or one with AVX-512 operands."""
    first = raw.split()
    if first and first[0] == "67":
        first = first[1:]
    return (bool(first) and first[0] == "62") or bool(AVX512_OPERAND.search(text))


def allowed(name):
    return any(name.startswith(kernel + "(") for kernel in ALLOWED)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("binary")
    args = ap.parse_args()
    try:
        proc = subprocess.Popen(["objdump", "-d", "-C", args.binary],
                                stdout=subprocess.PIPE, text=True)
    except OSError as e:
        sys.exit(f"error: cannot run objdump: {e}")
    function = None
    offenders = {}  # function -> (count, first instruction)
    seen = set()  # allowed kernels found
    for line in proc.stdout:
        line = line.rstrip("\n")
        m = FUNCTION.match(line)
        if m:
            function = m.group(1)
            for kernel in ALLOWED:
                if function.startswith(kernel + "("):
                    seen.add(kernel)
            continue
        m = INSTRUCTION.match(line)
        if not m or function is None or not is_avx512(m.group(1), m.group(2)):
            continue
        if allowed(function):
            continue
        count, first = offenders.get(function, (0, m.group(2).strip()))
        offenders[function] = (count + 1, first)
    if proc.wait() != 0:
        sys.exit(f"error: objdump failed on {args.binary}")
    failed = False
    for kernel in ALLOWED:
        if kernel not in seen:
            print(f"MISSING    {kernel}")
            failed = True
    for function, (count, first) in sorted(offenders.items()):
        print(f"AVX-512    {count:5} instructions, first `{first}`  in {function}")
        failed = True
    if failed:
        print(f"error: AVX-512 instructions outside the dispatched kernels of "
              f"{args.binary}, or a listed kernel is missing", file=sys.stderr)
        return 1
    print(f"AVX-512 only in the {len(ALLOWED)} dispatched kernel(s): "
          + ", ".join(ALLOWED))
    return 0


if __name__ == "__main__":
    sys.exit(main())
