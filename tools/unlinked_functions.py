#!/usr/bin/env python3
"""Lists the functions src/ defines that no example or bench links.

Configures a separate build of the tree with -ffunction-sections,
-fdata-sections and -Wl,--gc-sections, builds every example and bench,
and compares the functions the src/ libraries define out of line (`nm`
type T) with the functions left in the linked binaries. A function that
comes out is linked into no binary: it is dead, or only tests call it.

Inline and template functions (weak symbols) are not covered, and a
function that every caller inlined is listed although its code runs, so
grep for callers (src tests bench examples tools wallbench) before
deleting anything the scan names. It is not part of tier-1.

    unlinked_functions.py --build-dir DIR [--source-dir DIR] [--jobs N]
"""
import argparse
import pathlib
import subprocess
import sys


def run(args, **kwargs):
    return subprocess.run(args, check=True, text=True, **kwargs)


def symbols(path, types):
    """Mangled names of the defined symbols of `path` whose nm type is in
    `types`."""
    out = run(["nm", "--defined-only", str(path)],
              capture_output=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in types:
            names.add(fields[2])
    return names


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--build-dir", required=True)
    parser.add_argument("--source-dir",
                        default=str(pathlib.Path(__file__).parents[1]))
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    source = pathlib.Path(args.source_dir).resolve()
    build = pathlib.Path(args.build_dir).resolve()

    run(["cmake", "-S", str(source), "-B", str(build),
         "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"],
        stdout=subprocess.DEVNULL)
    binaries = {"examples": sorted(p.stem for p in
                                   (source / "examples").glob("*.cc")),
                "bench": sorted(p.stem for p in
                                (source / "bench").glob("*.cc"))}
    targets = [name for names in binaries.values() for name in names]
    run(["cmake", "--build", str(build), "-j", str(args.jobs),
         "--target", *targets], stdout=subprocess.DEVNULL)

    defined = {}
    for library in sorted((build / "src").rglob("*.a")):
        for name in symbols(library, {"T"}):
            defined[name] = library.stem.removeprefix("lib")
    linked = set()
    for folder, names in binaries.items():
        for name in names:
            linked |= symbols(build / folder / name, {"T", "t", "W", "w"})

    unlinked = sorted(set(defined) - linked)
    demangled = run(["c++filt"], input="\n".join(unlinked),
                    capture_output=True).stdout.splitlines()
    print(f"{len(unlinked)} of {len(defined)} functions that src/ "
          f"libraries define out of line are linked into none of "
          f"{len(targets)} examples and benches:")
    for name, pretty in sorted(zip(unlinked, demangled),
                               key=lambda pair: (defined[pair[0]],
                                                 pair[1])):
        print(f"  {defined[name]}: {pretty}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
