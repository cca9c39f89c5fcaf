"""Exact Lie-theoretic cohomology arithmetic for Picard-rank-one flag varieties.

The engine modules ``rootsys``, ``bwb``, ``parabolic`` and ``verify`` are
registered here through ``importlib.util.LazyLoader``: each runs on the
first read of one of its attributes, and its imports run the modules it
needs.  So ``import flagcoh`` compiles none of them, and a command runs only
what it uses (``cli`` lists which).  They sit in ``sys.modules`` and on the
package from the start, so ``sys.modules["flagcoh.verify"]``, ``from flagcoh
import verify`` and ``import flagcoh.verify`` all find the one module object,
as after an eager import, and a tracer that rebinds their functions finds
them.  A public name such as ``flagcoh.weyl_dim`` is read off the
name -> module table ``_HOME`` by ``__getattr__`` (PEP 562).

On Python 3.11 a lazy module's first attribute read is not thread-safe
(3.12 takes a lock there).  The engine starts no threads; a caller that
does should touch the modules it needs first.
"""

__version__ = "0.1.0"

# Largest rank accepted for the unbounded families A-D, so that a typo
# cannot hang the command line: on a 2-vCPU VM with Python 3.11 building
# A100 takes 0.03-0.04 s and B100, C100 or D100 0.065-0.085 s, and the cost
# grows with about the cube of the rank.
MAX_RANK = 100

# each engine module, in import order, with the public names it defines
_EXPORTS = {
    "rootsys": (
        "ConfigError", "Family", "LieType", "RootSystem", "Weight", "all_lie_types", "build_root_system",
        "fundamental_weight", "root_system",
    ),
    "bwb": (
        "CohomologyTable", "bwb_cohomology", "classify", "classify_cotangent_twist_weights", "to_dominant",
        "weyl_dim",
    ),
    "parabolic": (
        "MacaulayStatus", "ParabolicData", "UnsupportedPairError", "h0_twisted_cotangent",
        "konno_lowest_weights", "konno_pairs", "macaulay_exceptions", "parabolic_data", "sigma",
    ),
    "verify": ("CaseResult", "Report", "check_lemma_studiopesi", "check_theorem_lungo", "emit_report"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["MAX_RANK", *_HOME]


def _lazy(name: str):
    """``flagcoh.<name>``, registered in ``sys.modules`` to run on the first read of one of its attributes."""
    import sys  # imported here, so that the package's namespace holds its public names only
    from importlib.util import LazyLoader, find_spec, module_from_spec

    fullname = f"{__name__}.{name}"
    if fullname in sys.modules:  # a reload of the package keeps its modules, as an eager import does
        return sys.modules[fullname]
    spec = find_spec(fullname)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


rootsys, bwb, parabolic, verify = map(_lazy, _EXPORTS)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # bound once, as an eager ``from .module import name`` would have bound it
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
