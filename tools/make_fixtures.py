"""Regenerate the committed fixtures under fixtures/ or a given directory.

Each fixture freezes a value the library derives rather than copies:
the twist-conjugated two-parameter matrix, the contracted triangular
matrix, the exploratory probe-twist limit record, the derived relation
table, the solved block inverse, and the convention resolution scores.
Run from the repository root:

    python3 tools/make_fixtures.py [OUT_DIR]
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from jforge.contraction import bundled_schedule, contraction_report, probe_divergence
from jforge.freealg import nc_str
from jforge.rmat import (
    conjugate,
    four_param_deformed_r3,
    jordanian_r3,
    twist_2x2,
    twist_3x3,
    twist_probe_3x3,
    two_param_deformed_r2,
)
from jforge.rtt import DerivedAlgebra, resolve_convention

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def dump(out: str, name: str, payload: dict):
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote", os.path.relpath(path))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", nargs="?", default=FIXTURES,
                    help="output directory (default: fixtures/)")
    out = ap.parse_args(argv).out
    os.makedirs(out, exist_ok=True)

    dump(out, "rq2_conjugated_by_g.json",
         conjugate(two_param_deformed_r2(), twist_2x2()).to_dict())

    schedule = bundled_schedule()[0]
    result, report = contraction_report(
        four_param_deformed_r3(), twist_3x3(), schedule, jordanian_r3())
    assert report.passed, report.to_text()
    dump(out, "rj3_contracted.json", result.to_dict())

    records = probe_divergence(four_param_deformed_r3(), twist_probe_3x3(),
                               schedule)
    dump(out, "gprime_probe.json", {"note": "no target asserted",
                                    "records": records})

    alg = DerivedAlgebra()
    table = alg.system.to_dict()
    table["convention"] = alg.convention
    dump(out, "relation_table_rj3.json", table)

    assert alg.block_inv is not None
    gens = alg.system.generators
    dump(out, "t_inverse.json", {
        "entries": [[nc_str(e, gens) for e in row] for row in alg.block_inv],
        "record": alg.block_inv_record,
    })

    winner, scores, _graded = resolve_convention()
    dump(out, "convention_resolution.json", {"winner": winner, "scores": scores})


if __name__ == "__main__":
    main()
