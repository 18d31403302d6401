#!/usr/bin/env python3
"""Checks that a file is well-formed Prometheus text exposition.

Every sample line must parse as `name{labels} value` with a name from
the grammar `[a-zA-Z_:][a-zA-Z0-9_:]*`, and every series must belong to
a family with a `# TYPE` line. Each further argument names a series that
must be present; `--at-least NAME=V` also requires its value to be at
least V.

    python3 ci/check_prometheus.py FILE [SERIES ...] [--at-least NAME=V ...]
"""

import re
import sys

SAMPLE = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (?:[0-9.eE+-]+|NaN|[+-]Inf)$')


def check(path, required, at_least):
    typed, series = set(), {}
    for line in open(path):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("# TYPE "):
            typed.add(line.split()[2])
            continue
        if line.startswith("#"):
            continue
        assert SAMPLE.match(line), f"{path}: unparseable sample line: {line!r}"
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        series[name] = float(line.rsplit(" ", 1)[1])
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in typed or family in typed, f"{path}: {name} has no # TYPE"
    for name in required:
        assert name in series, f"{path}: missing core series {name}"
    for name, floor in at_least:
        assert series.get(name, float("-inf")) >= floor, f"{path}: {name} below {floor}: {series.get(name)}"
    print(f"{path}: well-formed, {len(series)} series, required series present")


def main(argv):
    path, required, at_least = argv[0], [], []
    args = iter(argv[1:])
    for arg in args:
        if arg == "--at-least":
            name, floor = next(args).split("=")
            at_least.append((name, float(floor)))
        else:
            required.append(arg)
    check(path, required, at_least)


if __name__ == "__main__":
    main(sys.argv[1:])
