"""The library names bench/units.py asks for still resolve.

A name that no longer resolves makes its bench row absent instead of
failing, so a deletion would go unnoticed without this test.
"""

import importlib
import re
from pathlib import Path

UNITS = Path(__file__).resolve().parent.parent / "bench" / "units.py"
# names of code that has since been deleted; their rows read as absent
STALE = {
    "eigensolve.eig_nonsymmetric",
    "skewortho.build_family_beta1",
    "skewortho.gaussian_weight",
}


def resolves(dotted):
    module, _, name = dotted.rpartition(".")
    try:
        return hasattr(importlib.import_module("betaone." + module), name)
    except ModuleNotFoundError:
        return False


def test_bench_unit_names_resolve():
    names = set(re.findall(r'need\("([\w.]+)"\)', UNITS.read_text()))
    assert len(names) > len(STALE)
    assert {name for name in names if not resolves(name)} == STALE
