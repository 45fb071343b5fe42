"""Exact exterior-algebra computations over signed index windows.

The package works entirely in rational arithmetic: multivectors are sparse
combinations of basis wedges indexed by sets of nonzero integers, Pfaffian and
hyper-Pfaffian forms are sparse polynomials in those coordinates, and the
variety membership tests / coordinate reconstruction routines built on top of
them are exact wherever the underlying criterion is.
"""
from types import ModuleType as _ModuleType

from .indices import (
    DimensionMismatch,
    GoodParams,
    Window,
    enumerate_partitions,
    index_set,
    is_good,
    shuffle_sign,
    sort_with_sign,
    young_diagram,
)
from .multivector import (
    Covector,
    FormatError,
    Multivector,
    RationalMatrix,
    contract,
    gl_apply,
    hodge_star,
    multivector_from_obj,
    multivector_to_obj,
    parse_fraction,
    rank_two_form,
    transition,
    wedge,
    wedge_power,
)
from .polynomials import (
    WedgePolynomial,
    poly_equal,
    poly_eval,
    poly_from_obj,
    poly_to_obj,
)
from .forms import (
    FormSpec,
    component_form_specs,
    filtration_expansion,
    hpf_eval,
    hpf_multilinear,
    hpf_polynomial,
    plucker_relation,
    wedge_via_hpf,
)
from .varieties import (
    MembershipReport,
    TypeSpec,
    VarietySpec,
    check_membership,
    contraction_membership,
    in_dual_hpf,
    in_grassmannian,
    in_hpf,
    in_hpf_component,
    in_pf,
    in_two_sided,
    odd_partition_check,
    pf_contraction_identically_zero,
    pf_contraction_witness,
    type_witness,
)
from .elimination import (
    CoordinateAssignment,
    ReconstructionResult,
    good_projection,
    reconstruct_all,
)

# every name imported above is public, and no other
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
