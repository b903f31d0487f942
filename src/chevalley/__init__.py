"""Exact matrix computations for subsystem subgroups of Chevalley groups over
chain-ring products: root and weight combinatorics, generator relations,
invariant forms, levels, normalizer conditions, and witness extraction."""

from .analysis import (
    LevelCertificate,
    MembershipVerdict,
    SigmaPair,
    Witness,
    chevalley_matsumoto,
    column_stabilizer_pair,
    corner_ideals,
    extract_from_nilpotent,
    extract_from_parabolic,
    extract_from_weight_stabilizer,
    generators_in_normalizer,
    in_G_sigma,
    in_normalizer,
    in_opposite_parabolic,
    in_parabolic,
    level_certificate,
    level_reduction_check,
    levi_unipotent_split,
    nilpotent_vanishing_check,
    opposite_levi_split,
    parse_sigma,
    replay_trace,
    root_type_failures,
    sigma_generator_atoms,
    transporter_check,
)
from .forms import (
    QuadraticForm,
    WeightSquare,
    bilinear_form_signs,
    bilinear_invariance_holds,
    build_pi_form,
    find_square,
    square_equation,
)
from .matrices import RMat, RVec
from .rep import GroupElement, Representation, get_representation, representation
from .rings import Factor, Ideal, RingElem, RingSpec, named_ring
from .rng import SplitMix64
from .roots import EmbeddingCase, build_case, orbit_decomposition, partner_root, weyl_orbit
from .weights import WeightModule, build_weights, default_module, sigma_split

__all__ = [name for name in dir() if not name.startswith("_")]
