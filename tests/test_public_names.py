"""Every public module-level name of the library is used outside the tests.

A name counts as used when src/, bench/ or demos/ read it: as a name,
an attribute, or a dotted string such as bench/units.py's
need("ginoe_kernels.ginoe_rho").  Defining it is not a use.  The names
that only the tests or only bench/ read are pinned, so that a new one is
noticed, and each name pinned as test-only must be read by some test.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "betaone"
DOTTED = re.compile(r"[A-Za-z_][\w.]*\Z")
# library checks that only tests call
TEST_ONLY = {
    "ginibre.partition_function_check",
    "ginibre.sinclair_prefactor",
    "montecarlo.pair_mass_estimate",
}
# library names that only bench/ reads
BENCH_ONLY = {"ginoe_kernels.ginoe_rho", "montecarlo.ginibre_spectra", "reduction.verify_odd_limit_ginoe"}


def defined_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and DOTTED.match(node.value):
            yield from node.value.split(".")


def sources(*folders):
    return [path for folder in folders for path in (ROOT / folder).rglob("*.py")]


def unused_names(paths):
    used = set()
    for path in paths:
        used.update(used_names(ast.parse(path.read_text())))
    return {
        "%s.%s" % (path.stem, name)
        for path in PACKAGE.glob("*.py")
        for name in defined_names(ast.parse(path.read_text()))
        if not name.startswith("_") and name not in used
    }


def test_public_names_are_used_outside_the_tests():
    assert unused_names(sources("src", "bench", "demos")) == TEST_ONLY


def test_bench_only_names_are_pinned():
    assert unused_names(sources("src", "demos")) - TEST_ONLY == BENCH_ONLY


def test_test_only_names_are_read_by_the_tests():
    # a pinned name that no test reads is dead code; the pin list in this
    # file is not a read
    tests = [path for path in sources("tests") if path.name != pathlib.Path(__file__).name]
    assert not unused_names(tests) & TEST_ONLY
