"""spherelab: a cross-checking laboratory for 3-sphere / 7-sphere
correlation models, a brute-force quantum oracle, a nonlinear constraint
solver, and seeded hidden-orientation ensembles."""

import importlib

__all__ = ["cli", "compare", "ga3", "geometry", "identities", "lrmodel", "mcsim", "qmref", "sphere7"]

__version__ = "0.1.0"


def __getattr__(name):
    # Submodules load on first use, so `python -m spherelab.cli` does not find
    # the module already imported and `import spherelab` stays cheap.
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
