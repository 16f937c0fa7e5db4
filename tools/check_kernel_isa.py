#!/usr/bin/env python3
"""Kernel ISA guard: the GEMM kernel objects hold the code they promise.

Registered as the ctest ``lint.kernel_isa`` (label "lint") where CMake
found objdump and builds the x86-64 kernel variants (root
CMakeLists.txt):

    python3 tools/check_kernel_isa.py --self-test --objdump objdump \\
        --archive build/libvwsdk.a

The GEMM micro-kernel (src/tensor/gemm_microkernel.h) is compiled once
per ISA into the archive members gemm_kernel_avx512.cpp.o,
gemm_kernel_avx2.cpp.o and gemm_kernel_baseline.cpp.o.  From their
disassembly this check fails when:

  * any of the three members is missing;
  * any of them contains a fused multiply-add (vfmadd*, vfmsub*,
    vfnmadd*, vfnmsub*): it rounds a*b+c once where the reference sum
    rounds twice, which breaks bit-identity on non-integer data;
  * the AVX-512 member uses no zmm register or the AVX2 member no ymm
    register: the unit lost its flag and runs at a narrower width.

``--self-test`` first runs the check on synthetic disassembly and fails
unless it flags each fault and passes a clean listing; then the real
archive is checked.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from pathlib import Path

# Member -> the register class its code must use (None: any).
KERNEL_MEMBERS = {
    "gemm_kernel_avx512.cpp.o": "zmm",
    "gemm_kernel_avx2.cpp.o": "ymm",
    "gemm_kernel_baseline.cpp.o": None,
}

FUSED = re.compile(r"\bvfn?m(?:add|sub)\w*")


def members_of(listing: str) -> dict[str, str]:
    """{member: disassembly} from `objdump -d <archive>`, whose members
    each start with a "name.o:     file format ..." header."""
    members: dict[str, list[str]] = {}
    current = None
    for line in listing.splitlines():
        header = re.match(r"^(\S+\.o):\s+file format", line)
        if header:
            current = header.group(1)
            members[current] = []
        elif current is not None:
            members[current].append(line)
    return {name: "\n".join(lines) for name, lines in members.items()}


def problems_in(members: dict[str, str]) -> list[str]:
    problems = []
    for member, register in KERNEL_MEMBERS.items():
        code = members.get(member)
        if code is None:
            problems.append(f"{member}: not in the archive")
            continue
        fused = FUSED.search(code)
        if fused:
            problems.append(
                f"{member}: contains the fused multiply-add "
                f"'{fused.group(0)}' (compile it with -ffp-contract=off)")
        if register is not None and f"%{register}" not in code:
            problems.append(
                f"{member}: uses no {register} register (is its ISA flag "
                "set in CMakeLists.txt?)")
    return problems


# --------------------------------------------------------------------------
# Self-test
# --------------------------------------------------------------------------

def synthetic(avx512: str, avx2: str, baseline: str) -> str:
    return "\n".join([
        "In archive libvwsdk.a:",
        "",
        "gemm_backend.cpp.o:     file format elf64-x86-64",
        "  10:\tvfmadd231pd %ymm1,%ymm2,%ymm3",  # not a kernel member
        "",
        "gemm_kernel_avx512.cpp.o:     file format elf64-x86-64",
        avx512,
        "",
        "gemm_kernel_avx2.cpp.o:     file format elf64-x86-64",
        avx2,
        "",
        "gemm_kernel_baseline.cpp.o:     file format elf64-x86-64",
        baseline,
    ])


CLEAN_AVX512 = "  4:\tvmulpd %zmm1,%zmm2,%zmm3\n  a:\tvaddpd %zmm3,%zmm0,%zmm0"
CLEAN_AVX2 = "  4:\tvmulpd %ymm1,%ymm2,%ymm3\n  a:\tvaddpd %ymm3,%ymm0,%ymm0"
CLEAN_BASELINE = "  4:\tmulpd  %xmm1,%xmm2\n  8:\taddpd  %xmm2,%xmm0"


def run_self_test() -> list[str]:
    failures = []
    clean = problems_in(members_of(
        synthetic(CLEAN_AVX512, CLEAN_AVX2, CLEAN_BASELINE)))
    if clean:
        failures.append(f"self-test: false positive on a clean input: "
                        f"{clean[0]}")
    bad_inputs = {
        "a fused multiply-add": synthetic(
            CLEAN_AVX512 + "\n  f:\tvfmadd231pd %zmm1,%zmm2,%zmm3",
            CLEAN_AVX2, CLEAN_BASELINE),
        "a negated fused multiply-add": synthetic(
            CLEAN_AVX512, CLEAN_AVX2,
            CLEAN_BASELINE + "\n  f:\tvfnmadd213sd %xmm1,%xmm2,%xmm3"),
        "an AVX-512 unit without zmm": synthetic(
            CLEAN_AVX2, CLEAN_AVX2, CLEAN_BASELINE),
        "an AVX2 unit without ymm": synthetic(
            CLEAN_AVX512, CLEAN_BASELINE, CLEAN_BASELINE),
        "a missing member": "\n".join(
            synthetic(CLEAN_AVX512, CLEAN_AVX2, CLEAN_BASELINE)
            .splitlines()[:-3]),
    }
    for fault, listing in bad_inputs.items():
        if not problems_in(members_of(listing)):
            failures.append(f"self-test: {fault} was not flagged -- the "
                            "check has gone blind")
    return failures


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objdump", default="objdump", help="objdump binary")
    parser.add_argument("--archive", type=Path, help="libvwsdk.a")
    parser.add_argument("--self-test", action="store_true",
                        help="check the checker first")
    args = parser.parse_args()

    if args.self_test:
        failures = run_self_test()
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        print("self-test: the kernel ISA check flags fused multiply-adds, "
              "narrow units and missing members, and passes a clean input")
    if args.archive is None:
        if args.self_test:
            return 0
        parser.error("--archive is required")

    listing = subprocess.run(
        [args.objdump, "-d", "--no-show-raw-insn", str(args.archive)],
        check=True, capture_output=True, text=True).stdout
    problems = problems_in(members_of(listing))
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print(f"kernel_isa: {len(KERNEL_MEMBERS)} kernel objects, no fused "
          "multiply-add, each at its own vector width")
    return 0


if __name__ == "__main__":
    sys.exit(main())
