"""The benchmark's tracer wraps library functions by module and name; a
deletion or rename in the library must fail here, not in a traced run.
Likewise a reduction that bypasses ``geometry.exact_sum``, which the traced
``exact_dot``/``integrate`` call, would escape the exact-sum contract and
the reduction counts."""

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

from conftest import termless

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "extbounds"
# only geometry may call math.fsum, and there only in the functions of
# exact_sum, the reduction behind the traced ones
FSUM_MODULES = {"geometry"}
EXACT_SUM_KERNEL = {"exact_sum", "_extracted_sums"}


def traced_layers():
    # read LAYERS from the source without importing the tracer
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACER}")


@pytest.mark.parametrize("span,module,names", [
    (span, module, names) for span, (module, names) in traced_layers().items()
])
def test_traced_functions_exist(span, module, names):
    mod = importlib.import_module(f"extbounds.{module}")
    for name in names:
        assert callable(getattr(mod, name, None)), f"{span}: extbounds.{module}.{name}"


def fsum_uses(tree):
    """Nodes naming fsum: ``x.fsum``, a bare ``fsum`` and ``import ... fsum``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fsum":
            yield node
        elif isinstance(node, ast.Name) and node.id == "fsum":
            yield node
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
            alias.name.split(".")[-1] == "fsum" for alias in node.names
        ):
            yield node


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_fsum_only_in_counted_modules(path):
    tree = ast.parse(path.read_text())
    uses = list(fsum_uses(tree))
    if path.stem not in FSUM_MODULES:
        assert not uses, f"{path.name}:{uses[0].lineno}: reduce through exact_sum"
    else:
        inside = {id(n) for f in tree.body
                  if isinstance(f, ast.FunctionDef) and f.name in EXACT_SUM_KERNEL
                  for n in ast.walk(f)}
        for node in uses:
            assert id(node) in inside, f"geometry.py:{node.lineno}: fsum outside exact_sum"
    if path.stem == "traces":
        # the tracer swaps traces' module-level ``math`` for a proxy
        assert any(isinstance(n, ast.Import)
                   and any(a.name == "math" and a.asname is None for a in n.names)
                   for n in tree.body), "traces.py must `import math`"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_caches_clear_without_arguments(path):
    # the cli workload empties the program's caches before each command by
    # calling cache_clear() on every module attribute that has one
    module = importlib.import_module(f"extbounds.{path.stem}".replace(".__init__", ""))
    for name, value in list(vars(module).items()):
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def test_wrapped_basis_keeps_supports_and_bytes():
    # the tracer counts basis nodes through ``dataclasses.replace(field,
    # value=..., gradient=...)``: each wrapped field must keep its support,
    # so the traced program evaluates the same rows and reports the same bytes
    import extbounds as xb
    from extbounds.minorant import default_basis, minorant_report
    from extbounds.problems import perturb

    mp = xb.builtin("N3_harmonic", shells=8)
    v = perturb(mp, "v", 0.1, "interior_bump", seed=3)
    basis = default_basis(mp.domain, 4, 1)
    wrapped = dataclasses.replace(basis, fields=tuple(
        dataclasses.replace(f, value=lambda pts, f=f: f.value(pts),
                            gradient=lambda pts, f=f: f.gradient(pts))
        for f in basis.fields))
    supports = [f.support for f in wrapped.fields]
    assert supports == [f.support for f in basis.fields] and None not in supports
    plain, traced = (minorant_report(mp.problem, v, b) for b in (basis, wrapped))
    assert plain.as_dict() == traced.as_dict()
    assert plain.coefficients.tobytes() == traced.coefficients.tobytes()


def test_names_perfbench_reads_exist():
    # the warm set-up and its closed-form checks read these names, so a
    # deletion in the library must fail here, not in a benchmark run
    import extbounds as xb

    used = {node.attr
            for path in sorted((ROOT / "perfbench").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "xb"}
    assert {"builtin", "constants_bundle", "minorant_report"} <= used
    assert [name for name in sorted(used) if not hasattr(xb, name)] == []

    bundle = xb.constants_bundle(xb.builtin("N3_harmonic", shells=1).problem)
    for name in ("poincare", "c_o_formula", "c_o_eigen", "friedrichs", "extension",
                 "trace", "modes", "cutoff"):
        assert hasattr(bundle, name), f"ConstantsBundle.{name}"
    assert len(bundle.extension.params["mode_energies"]) == bundle.modes + 1

    # the reference energy integrates A grad e . grad e through A.matrix,
    # and the closed-form checks read the ellipticity bounds
    for name in xb.CATALOG:
        p = xb.builtin(name, shells=1).problem
        A, (m, n) = p.A, p.quads.whole.nodes.shape
        mats = A.matrix(p.quads.whole.nodes)
        assert mats.shape == (m, n, n), name
        assert (mats == np.diag(A.diagonal)).all(), name
        assert isinstance(A.c_A, float) and isinstance(A.c_A_plus, float), name


def test_tracer_reads_the_calls_it_wraps():
    # the tracer's span attributes read positional arguments (energy_norm's
    # mode and rule, minorant_report's problem and basis): a change of those
    # signatures must fail here, not in a traced benchmark run.  No bound
    # calls the norms on a rule's nodes, so they are called here directly
    import importlib.util

    import extbounds as xb
    import extbounds.fields as fields
    from extbounds.problems import perturb

    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    mp = xb.builtin("N3_harmonic", shells=1)
    p = mp.problem
    v = perturb(mp, "v", 0.1, "interior_bump", seed=1)
    y_i, y_e = perturb(mp, "y_broken", 0.1, "interface_jump", seed=2)
    n2 = xb.builtin("N2_log", shells=1)
    whole, plane = p.quads.whole, n2.problem.quads.omega_e
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        xb.estimate_I(p, v, mp.exact_flux)
        xb.estimate_II(p, v, mp.exact_flux)
        xb.estimate_III(p, v, y_i, y_e)
        # a basis with terms, which the assembly and the zero-trace check
        # read in place of the closures: no basis node is counted
        xb.minorant_report(p, v, xb.default_basis(mp.domain))
        fields.energy_norm(p.A, v.gradient(whole.nodes), "A", whole)
        fields.weighted_norm(v, 1.0, whole)
        fields.log_weighted_norm(n2.exact_u, plane)
    finally:
        tracer.uninstall()
    spans = tracer.take()
    metrics = tracer_module.layer_metrics(spans)
    assert metrics["majorant.estimate.calls"] == 3
    # the closed-form traces count as projections too: v's in I (II and III
    # share it) and the jump's in III; the minorant shares v's
    assert metrics["traces.project.calls"] == 2
    assert metrics["minorant.report.calls"] == 1
    assert metrics["minorant.basis_nodes"] == 0
    norms = [s.attrs for s in spans if s.name == "fields.norm"]
    assert norms == [{"nodes": len(whole), "mode": "A"}, {"nodes": len(whole), "mode": None},
                     {"nodes": len(plane), "mode": None}]
    assert metrics["fields.norm.calls"] == 3
    assert metrics["fields.norm.nodes"] == 2 * len(whole) + len(plane)


def test_cleared_caches_build_new_rules(monkeypatch):
    # the cli workload empties the program's caches before each command
    # (``clear_program_caches``), so that every command pays cold rules:
    # the store of shared rules must be one of the caches it empties
    import importlib.util
    import sys

    import extbounds as xb

    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    held = xb.builtin("N3_harmonic", shells=1)
    assert xb.builtin("N3_harmonic", shells=1).problem.quads is held.problem.quads
    workloads.clear_program_caches()
    assert xb.builtin("N3_harmonic", shells=1).problem.quads is not held.problem.quads
