#!/usr/bin/env python3
"""Fails when src/ defines a function that no shipped binary keeps.

Compares two `nm -C` symbol sets: the strong (type T) non-template dlner::
functions the src/ static libraries define, and every symbol the non-test
binaries keep after the linker has dropped unused sections. A library
function missing from every binary is reached by tests alone. It must be
deleted, moved to tests/support, or listed in the allowlist with a reason.
An allowlist entry that a binary keeps, or that no library defines any
more, is stale and fails too, so the list can only shrink. Standard library
only; the CI reachability step builds the binaries with

    -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections -fno-inline"
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections

and runs

    python3 tools/check_reachable.py --allowlist tools/reachable_allowlist.txt \\
        --libs build/src/*/libdlner_*.a --bins build/tools/dlner ...

--libs-nm / --bins-nm read saved `nm -C` listings instead of running nm.

Allowlist lines are `<demangled signature>  # <reason>`; `#` starts a
comment line. Signatures are written without ABI tags such as [abi:cxx11].

Exits 0 when every library function is kept or allowlisted and no entry is
stale, 1 otherwise (each failure is printed).
"""
import argparse
import re
import subprocess
import sys

# "<address> <type> <name>" or "<type> <name>" (undefined symbols).
NM_LINE = re.compile(r"^(?:[0-9a-fA-F]+)?\s+([A-Za-z?-])\s+(.+)$")
ABI_TAG = re.compile(r"\[abi:[^\]]*\]")
CLONE = re.compile(r"(?: \[clone [^\]]*\])+$")
OPERATOR = re.compile(r"operator\s*(?:\(\)|<=>|<<=|>>=|<<|>>|<=|>=|->|<|>)")


def normalize(name):
    """Drops ABI tags and [clone .xyz] suffixes: one name per function."""
    return CLONE.sub("", ABI_TAG.sub("", name)).strip()


def is_template(name):
    """True when the qualified name, before its parameters, has <...>."""
    qualified = OPERATOR.sub("operator", name).split("(", 1)[0]
    return "<" in qualified


def parse_nm(text):
    """Yields (type, normalized name) for each defined symbol line."""
    for line in text.splitlines():
        if not line.strip() or line.endswith(":"):
            continue  # blank or an archive member header
        m = NM_LINE.match(line)
        if m and m.group(1) not in "Uuvw":
            yield m.group(1), normalize(m.group(2))


def run_nm(path):
    proc = subprocess.run(["nm", "-C", "--defined-only", path],
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"check_reachable: nm {path} failed: {proc.stderr.strip()}")
    return proc.stdout


def read_listings(files, saved):
    texts = []
    for path in files:
        if saved:
            with open(path, encoding="utf-8") as f:
                texts.append(f.read())
        else:
            texts.append(run_nm(path))
    return texts


def library_functions(texts):
    return {name for text in texts for kind, name in parse_nm(text)
            if kind == "T" and name.startswith("dlner::")
            and not is_template(name)}


def kept_symbols(texts):
    return {name for text in texts for _, name in parse_nm(text)}


def read_allowlist(path, errors):
    entries = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            name, sep, reason = line.partition("#")
            name = normalize(name)
            where = f"{path}:{lineno}"
            if not sep or not reason.strip():
                errors.append(f"{where}: '{name}' has no reason")
            elif name in entries:
                errors.append(f"{where}: '{name}' is listed twice")
            else:
                entries[name] = reason.strip()
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--allowlist", required=True)
    libs = parser.add_mutually_exclusive_group(required=True)
    libs.add_argument("--libs", nargs="+", help="static libraries")
    libs.add_argument("--libs-nm", nargs="+", help="saved nm -C listings")
    bins = parser.add_mutually_exclusive_group(required=True)
    bins.add_argument("--bins", nargs="+", help="linked binaries")
    bins.add_argument("--bins-nm", nargs="+", help="saved nm -C listings")
    args = parser.parse_args()

    errors = []
    allowlist = read_allowlist(args.allowlist, errors)
    defined = library_functions(
        read_listings(args.libs or args.libs_nm, args.libs_nm is not None))
    kept = kept_symbols(
        read_listings(args.bins or args.bins_nm, args.bins_nm is not None))

    for name in sorted(defined - kept - allowlist.keys()):
        errors.append(f"reached by no binary: {name}")
    for name in sorted(allowlist):
        if name in kept:
            errors.append(f"stale allowlist entry, now reached: {name}")
        elif name not in defined:
            errors.append(f"stale allowlist entry, no longer defined: {name}")

    for message in errors:
        print(f"FAIL: {message}", file=sys.stderr)
    unreached = len(defined - kept)
    print(f"check_reachable: {len(defined)} dlner:: functions, "
          f"{len(defined) - unreached} kept by a binary, {unreached} "
          f"unreached, {len(allowlist)} allowlisted")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
