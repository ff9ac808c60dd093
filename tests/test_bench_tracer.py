"""The traced benchmark run (bench/run.py --trace 1) wraps package names
that bench/tracer.py looks up by name; a renamed or removed one breaks it."""

import os
import sys

from deformed_e2 import algebra, cli, representations

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def _package_namespaces():
    return {name: dict(vars(mod)) for name, mod in list(sys.modules.items())
            if mod is not None and (name == "deformed_e2"
                                    or name.startswith("deformed_e2."))}


def test_tracer_wraps_its_names_and_uninstall_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracer

    before = _package_namespaces()
    init = algebra.OperatorPoly.__init__
    _, uninstall = tracer.install()
    try:
        for table in (tracer.SPANS, tracer.COUNTS):
            for modname, funcs in table.items():
                space = before[f"deformed_e2.{modname}"]
                mod = sys.modules[f"deformed_e2.{modname}"]
                for func in funcs:
                    assert getattr(mod, func) is not space[func], func
        assert representations.poly_to_matrix is not before[
            "deformed_e2.representations"]["poly_to_matrix"]
        assert cli.ProcessPoolExecutor is not before[
            "deformed_e2.cli"]["ProcessPoolExecutor"]
        assert algebra.OperatorPoly.__init__ is not init
    finally:
        uninstall()
    for name, space in before.items():
        now = vars(sys.modules[name])
        for key, value in space.items():
            assert now[key] is value, f"{name}.{key}"
    assert algebra.OperatorPoly.__init__ is init
