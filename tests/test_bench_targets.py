"""The traced benchmark wraps package functions by name: every name it
targets, and every structure field its hooks read, must exist."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from ivpower.bounds import MatchConfig, build_structure
from ivpower.simulation import model3_spec, standard_iv_sets


def _tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_in_the_package():
    tracer = _tracer()
    for mod_name, attr, _ in tracer.TARGETS:
        module = importlib.import_module(f"ivpower.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer patches the method in the class's own namespace
            assert meth in vars(getattr(module, cls_name)), f"{mod_name}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"


def test_structure_hook_reads_a_built_structure():
    tracer = _tracer()
    rec = tracer.Tracer()
    structure = build_structure(model3_spec(rho=0.5, covariate="bernoulli"),
                                np.array([0.0]), standard_iv_sets()[3], MatchConfig())
    tracer._structure(rec, [], 0.0, structure)
    assert rec.acc["bounds.structure.grid_rows"] == structure.grid.shape[0]
    assert rec.acc["bounds.structure.groups"] == structure.partition.n_groups
    assert 0 < rec.acc["bounds.structure.referenced_rows"] <= structure.grid.shape[0]
    assert rec.acc["bounds.structure.members"] > 0
