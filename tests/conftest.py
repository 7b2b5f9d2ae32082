import numpy as np
import pytest
from hypothesis import settings

import extbounds as xb

# the same examples on every run, and no failures replayed from a database:
# a run's result depends on the code alone
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def n3_harmonic():
    return xb.builtin("N3_harmonic")


@pytest.fixture(scope="session")
def n3_decay():
    return xb.builtin("N3_decay")


@pytest.fixture(scope="session")
def n3_anisotropic():
    return xb.builtin("N3_anisotropic")


@pytest.fixture(scope="session")
def n2_log():
    return xb.builtin("N2_log")


@pytest.fixture(scope="session")
def catalog(n3_harmonic, n3_decay, n3_anisotropic, n2_log):
    return {
        "N3_harmonic": n3_harmonic,
        "N3_decay": n3_decay,
        "N3_anisotropic": n3_anisotropic,
        "N2_log": n2_log,
    }


@pytest.fixture(scope="session")
def bundles(catalog):
    return {
        name: mp.problem.constants for name, mp in catalog.items()
    }


def random_points_in_annulus(domain, count, seed):
    """Sample points uniformly-ish in the open annulus, any direction;
    column-major, as a rule's nodes are."""
    rng = np.random.default_rng(seed)
    radii = rng.uniform(domain.a * 1.02, domain.R * 0.98, size=count)
    dirs = rng.normal(size=(count, domain.dimension))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return np.asfortranarray(radii[:, None] * dirs)


def termless(x):
    """The field or basis ``x`` with the same closures and no terms (None):
    every bound refuses such a field, and ``oracles``' tensor reference sums
    it on the rule's nodes."""
    import dataclasses

    if hasattr(x, "fields"):
        return dataclasses.replace(x, fields=tuple(termless(w) for w in x.fields))
    return dataclasses.replace(x, **dict.fromkeys(x._terms, None))
