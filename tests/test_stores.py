"""Every process-wide store of the package is named here with its reason.

A module-level name bound to a list, dict or set can keep values alive
across calls.  Each such name in ``extbounds`` must be on ``ALLOWED``,
with one line on why it may be there, so that a new store is seen in
review; one that goes must leave the list too."""

import importlib
import pkgutil

import extbounds

ALLOWED = {
    "cli.FIELDS": "the config fields by name, built from ScenarioConfig at import; never written",
    "cli.SECTIONS": "the config keys that hold a JSON object, from FIELDS; never written",
    "fields._FORMULAS": "the formulas of p and p' of each kind of Profile, by name; never "
                        "written",
    "majorant._MISMATCH": "the last_call memo of dirichlet_mismatch: weak references to the "
                          "last (p, v) and its trace mismatch, shared by a sandwich's two reads",
    "problems._BUNDLE_CACHE": "weak references to the bundles some problem holds, so problems "
                              "on one domain and resolution share their rules",
    "problems.TARGET_MODES": "the perturbation modes each target supports; never written",
    "traces._DEGREE_ONE": "the degree-one trace coefficients of x / r per dimension; never "
                          "written",
}


def stores() -> set:
    """The "module.name" of each module-level list, dict or set of the
    package, dunder names left out."""
    found = set()
    names = [m.name for m in pkgutil.iter_modules(extbounds.__path__)]
    for module in [extbounds] + [importlib.import_module(f"extbounds.{n}") for n in names]:
        short = module.__name__.removeprefix("extbounds").lstrip(".") or "extbounds"
        for name, value in vars(module).items():
            if isinstance(value, (list, dict, set)) and not name.startswith("__"):
                found.add(f"{short}.{name}")
    return found


def test_every_store_is_allowed():
    assert stores() == set(ALLOWED)

