#!/usr/bin/env python3
"""Checks that an executable is a static PIE (ctest cli_static_pie).

    python3 tools/static_pie_test.py path/to/fpsq

Reads the ELF file and program headers and requires:

  (a) e_type ET_DYN: position-independent, so the program and the libc
      inside it are loaded at a random address (ASLR);
  (b) no PT_INTERP: nothing for a dynamic loader to do at start-up;
  (c) a PT_GNU_RELRO segment: relocated data is read-only after start;
  (d) a PT_GNU_STACK segment without PF_X: the stack is not executable.
"""

import struct
import sys

ET_DYN = 3
PT_INTERP = 3
PT_GNU_STACK = 0x6474E551
PT_GNU_RELRO = 0x6474E552
PF_X = 1


def program_headers(data):
    if data[:4] != b"\x7fELF":
        raise ValueError("not an ELF file")
    is64 = data[4] == 2
    endian = "<" if data[5] == 1 else ">"
    e_type = struct.unpack_from(endian + "H", data, 16)[0]
    if is64:
        phoff, = struct.unpack_from(endian + "Q", data, 32)
        phentsize, phnum = struct.unpack_from(endian + "HH", data, 54)
    else:
        phoff, = struct.unpack_from(endian + "I", data, 28)
        phentsize, phnum = struct.unpack_from(endian + "HH", data, 42)
    headers = []
    for i in range(phnum):
        off = phoff + i * phentsize
        p_type, = struct.unpack_from(endian + "I", data, off)
        # p_flags follows p_type in ELF64, and ends the entry in ELF32.
        flags_off = off + 4 if is64 else off + 24
        p_flags, = struct.unpack_from(endian + "I", data, flags_off)
        headers.append((p_type, p_flags))
    return e_type, headers


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: static_pie_test.py path/to/executable")
    with open(sys.argv[1], "rb") as f:
        e_type, headers = program_headers(f.read())
    types = [t for t, _ in headers]
    failures = []
    if e_type != ET_DYN:
        failures.append(f"e_type is {e_type}, not ET_DYN (not a PIE)")
    if PT_INTERP in types:
        failures.append("has a PT_INTERP (dynamically linked)")
    if PT_GNU_RELRO not in types:
        failures.append("has no PT_GNU_RELRO segment")
    stack = [flags for t, flags in headers if t == PT_GNU_STACK]
    if not stack or stack[0] & PF_X:
        failures.append("the stack is executable (PT_GNU_STACK with PF_X "
                        "or missing)")
    for failure in failures:
        print(f"static_pie_test: {sys.argv[1]}: {failure}")
    if failures:
        sys.exit(1)
    print("static_pie_test: ET_DYN, no PT_INTERP, RELRO, NX stack")


if __name__ == "__main__":
    main()
