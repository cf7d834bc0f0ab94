#!/usr/bin/env python3
"""Fails when a C++ source line is wider than the clang-format ColumnLimit.

Counts columns as code points, the way clang-format does, so a line that
holds an em dash is not charged three columns for it. Lets the limit hold
where clang-format is not installed; `format-check` still checks the rest
of the style.

    check_line_length.py [--max=79] DIR_OR_FILE...
"""
import argparse
import pathlib
import sys

SUFFIXES = {".cc", ".h"}


def sources(paths):
    for path in map(pathlib.Path, paths):
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*")
                              if p.suffix in SUFFIXES)
        else:
            yield path


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max", type=int, default=79)
    parser.add_argument("paths", nargs="+")
    args = parser.parse_args()
    over = 0
    for path in sources(args.paths):
        with open(path, encoding="utf-8") as f:
            for number, line in enumerate(f, 1):
                width = len(line.rstrip("\n"))
                if width > args.max:
                    print(f"{path}:{number}: {width} columns "
                          f"(limit {args.max})")
                    over += 1
    if over:
        print(f"{over} line(s) over {args.max} columns", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
