#!/usr/bin/env python3
"""Compare two output trees of tools/report_corpus.py.

    python3 tools/compare_reports.py A B

Each JSON report under reports/ is compared field by field.  A field is
named by its key path, with list indices dropped (closed_form.data[][] is
every entry of that matrix), so one line covers the field in every report.
For every field whose value differs, the script prints how many reports it
differs in and, when the values are floats, the largest absolute change
|a - b| and the largest relative change |a - b| / max(|a|, |b|).  Every
other file (exit_codes.txt, stderr.txt, inputs/) is compared byte for
byte, and a differing text file shows its differing lines.

Exits 0 when only float fields differ (or nothing does), 1 when a
non-float field, an exit code, a stderr line, an input or the set of
files differs, and 2 on bad usage.
"""

import json
import math
import os
import sys


def files(root):
    """Every file path under root, relative to it."""
    return {os.path.relpath(os.path.join(top, name), root)
            for top, _, names in os.walk(root) for name in names}


def fields(value, path=""):
    """(key path, leaf value) of every leaf of a parsed JSON document."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from fields(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from fields(item, path + "[]")
    else:
        yield path, value


def is_float_pair(a, b):
    """True when a and b are numbers and at least one is a float; the
    report writer prints an exact zero as the integer 0."""
    numbers = [isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (a, b)]
    return all(numbers) and (isinstance(a, float) or isinstance(b, float))


def change(a, b):
    """(absolute, relative) change from a to b; nan to nan is no change."""
    a, b = float(a), float(b)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    scale = max(abs(a), abs(b))
    if not math.isfinite(scale) or math.isnan(a) or math.isnan(b):
        return math.inf, math.inf
    return abs(a - b), abs(a - b) / scale


def compare_report(name, a, b, changes, failures):
    """Record the float fields of report name that differ in changes
    (key path -> [reports, largest absolute and relative change]) and
    every other difference in failures."""
    left, right = list(fields(a)), list(fields(b))
    if [key for key, _ in left] != [key for key, _ in right]:
        failures.append(f"{name}: the reports have different fields")
        return
    seen = {}
    for (key, x), (_, y) in zip(left, right):
        if is_float_pair(x, y):
            absolute, relative = change(x, y)
            if relative:
                old = seen.get(key, (0.0, 0.0))
                seen[key] = (max(old[0], absolute), max(old[1], relative))
        elif x != y or type(x) is not type(y):
            failures.append(f"{name}: {key}: {x!r} -> {y!r}")
    for key, (absolute, relative) in seen.items():
        entry = changes.setdefault(key, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] = max(entry[1], absolute)
        entry[2] = max(entry[2], relative)


def line_diff(name, a, b):
    """The differing lines of two text files, as failure messages."""
    old, new = a.decode().splitlines(), b.decode().splitlines()
    messages = [f"{name}: - {line}" for line in old if line not in new]
    messages += [f"{name}: + {line}" for line in new if line not in old]
    return messages or [f"{name}: the files differ in line order"]


def compare(root_a, root_b):
    """(changes, failures) between two corpus output trees."""
    changes, failures = {}, []
    paths_a, paths_b = files(root_a), files(root_b)
    for path in sorted(paths_a ^ paths_b):
        failures.append(f"{path}: only in "
                        f"{root_a if path in paths_a else root_b}")
    for path in sorted(paths_a & paths_b):
        with open(os.path.join(root_a, path), "rb") as fh:
            a = fh.read()
        with open(os.path.join(root_b, path), "rb") as fh:
            b = fh.read()
        if a == b:
            continue
        if path.startswith("reports" + os.sep) and path.endswith(".json"):
            compare_report(path, json.loads(a), json.loads(b), changes,
                           failures)
        elif path.endswith(".txt"):
            failures.extend(line_diff(path, a, b))
        else:
            failures.append(f"{path}: the files differ")
    return changes, failures


def main(argv):
    if len(argv) != 3:
        print(f"usage: {argv[0]} A B", file=sys.stderr)
        return 2
    for root in argv[1:]:
        if not os.path.isdir(os.path.join(root, "reports")):
            print(f"{argv[0]}: {root} has no reports/", file=sys.stderr)
            return 2
    changes, failures = compare(argv[1], argv[2])
    for key, (reports, absolute, relative) in sorted(changes.items()):
        print(f"float {key}: differs in {reports} report(s), largest "
              f"change {absolute:.3g} absolute, {relative:.3g} relative")
    for message in failures:
        print(f"DIFFERS {message}")
    if not changes and not failures:
        print("identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
