"""Exact arithmetic for Witt-Burnside, necklace and aperiodic rings.

The package computes, over any of its supported coefficient rings:

* the Witt-Burnside ring of a finite group (order <= 24), with ring
  operations solved on the ghost table (its integer universal
  polynomials are derived too, as output and as integrality certificate);
* the necklace (Burnside-Grothendieck) ring and the aperiodic ring of the
  same group, with structure constants from double cosets;
* ghost maps for all three, exponential/necklace scalars, and the
  Teichmuller-type isomorphisms connecting them;
* inductions, restrictions, Frobenius and Verschiebung operators;
* the cyclic/profinite specialisation over truncation sets, together with
  its full q-deformation and Artin-Hasse style curve isomorphism.

The public names below, and the submodules named in `_SUBMODULES`, load
on first access (PEP 562), so `import wittburnside` itself loads no
submodule.
"""
from importlib import import_module

# module -> the public names it defines
_EXPORTS = {
    "errors": ("DomainError", "SchemaError"),
    "rings": (
        "MultiPoly", "QPolynomial", "RingSpec", "RingValue", "divisors", "is_integral",
        "is_numerical", "mobius", "parse_ring",
    ),
    "groups": (
        "FiniteGroup", "build_group", "marks_matrix", "structure_constants",
        "subgroup_classes", "subgroup_group",
    ),
    "burnside": (
        "APERIODIC", "GHOST", "NECKLACE", "WITT", "IndexedVector", "ap_ghost",
        "ap_ghost_inv", "ap_op", "delta_membership", "delta_reduce", "derive_universal",
        "exp_M", "exp_S", "gamma", "gamma_inv", "ghost_F", "ghost_nu", "ind_ap", "ind_nr",
        "nr_ghost", "nr_ghost_inv", "nr_op", "res_ap", "res_nr", "teichmuller",
        "teichmuller_inv", "theta", "theta_inv", "wg_ghost", "wg_op", "witt_f", "witt_v",
    ),
    "cyclic": (
        "CyclicVector", "TruncationSet", "aperiodic_poly", "cyc_ap_mul", "cyc_ap_op",
        "cyc_frobenius", "cyc_ghost", "cyc_ghost_inv", "cyc_nr_mul", "cyc_nr_op",
        "cyc_theta", "cyc_theta_inv", "cyc_universal", "cyc_verschiebung",
        "cyc_witt_ghost", "cyc_witt_op", "necklace_poly",
    ),
    "qdeform": (
        "QContext", "TruncatedCurve", "artin_hasse", "artin_hasse_inv", "curve_add",
        "curve_mul", "curve_neg", "p_poly", "q_ap_mul", "q_ap_op",
        "q_aperiodic_poly", "q_frobenius", "q_ghost", "q_ghost_inv", "q_necklace_poly",
        "q_nr_mul", "q_nr_op", "q_teichmuller", "q_teichmuller_inv", "q_universal",
        "q_verschiebung", "q_witt_ghost", "q_witt_op", "tau_q", "theta_q", "theta_q_inv",
        "try_one", "zeta_mu_q",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules that are attributes of the package, loaded on first access too
_SUBMODULES = (*_EXPORTS, "universal")

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)  # the import binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
