"""Compare two jforge JSON reports with every timing removed.

Every "ms" key, at any depth, is dropped from both reports; the rest must
be equal.  Prints the path of the first difference (keys in sorted order,
list positions in order) and exits 1, or prints "identical" and exits 0.
Run from anywhere:

    python3 tools/report_diff.py A.json B.json
"""

import argparse
import json
import sys


def strip_ms(value):
    """value with every "ms" key removed, recursively."""
    if isinstance(value, dict):
        return {k: strip_ms(v) for k, v in value.items() if k != "ms"}
    if isinstance(value, list):
        return [strip_ms(v) for v in value]
    return value


def first_difference(a, b, path="$"):
    """The path of the first place a and b differ, or None when equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}"
            found = first_difference(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        if len(a) != len(b):
            return f"{path}[{min(len(a), len(b))}]"
        return None
    if type(a) is not type(b) or a != b:
        return path
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="first report (JSON)")
    parser.add_argument("b", help="second report (JSON)")
    args = parser.parse_args(argv)
    with open(args.a, encoding="utf-8") as fh:
        a = strip_ms(json.load(fh))
    with open(args.b, encoding="utf-8") as fh:
        b = strip_ms(json.load(fh))
    where = first_difference(a, b)
    if where is None:
        print("identical")
        return 0
    print(f"first difference at {where}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
