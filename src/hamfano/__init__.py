"""Exact fixed-point data of Hamiltonian circle actions and its constraint checks.

Each library module is bound lazily and executes on its first attribute
access, and the names of ``__all__`` resolve through their home module on
first use, so a command executes only the modules it calls.  ``cli`` is not
bound here: ``python -m hamfano.cli`` must find it unimported."""

import importlib.util
import sys

__version__ = "0.1.0"

__all__ = [
    "FixedComponent", "FixedPointData", "GradientEdge", "LabelledGraph", "LatticePolytope",
    "Polynomial", "Rational", "Report", "StructuralError", "Violation", "abbv_sum_4d",
    "abbv_sum_6d", "alpha", "beta", "chi_y", "delpezzo_catalog", "extremal", "index", "validate",
]

# the home module of each name in __all__
_HOME = {
    name: module
    for module, names in {
        "fixed_data": "FixedComponent FixedPointData GradientEdge Rational extremal index validate",
        "graphs": "LabelledGraph",
        "localization": "Polynomial abbv_sum_4d abbv_sum_6d alpha beta chi_y",
        "reports": "Report StructuralError Violation",
        "toric": "LatticePolytope delpezzo_catalog",
    }.items()
    for name in names.split()
}

# each one is in sys.modules from the start, as readers of sys.modules expect
for _name in ("dh", "fano6", "fixed_data", "graphs", "localization", "reports", "toric"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
