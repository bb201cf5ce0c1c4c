"""Exact weight-stability of coherent section pairs on the projective line."""

from .bundles import (
    SaturationResult,
    SplittingType,
    cohomology,
    generic_splitting,
    kernel_splitting,
    max_subbundle_degree,
    saturate,
)
from .classification import (
    AlphaInterval,
    Status,
    Verdict,
    classify,
    cross_check,
    necessary_region,
)
from .delta import (
    DeltaInput,
    delta_bruteforce,
    delta_closure,
    delta_formula,
)
from .exactmath import (
    BinaryForm,
    FieldMatrix,
    PrimeField,
    multiplication_matrix,
    vanishing_divisor_degree,
)
from .numerology import Numerology, brill_noether, decompose
from .stability import (
    StabilityReport,
    SubsystemWitness,
    SystemInstance,
    check_global_generation,
    critical_alphas,
    is_alpha_stable,
    sample_instance,
    stability_interval,
)

__all__ = [
    "AlphaInterval",
    "BinaryForm",
    "DeltaInput",
    "FieldMatrix",
    "Numerology",
    "PrimeField",
    "SaturationResult",
    "SplittingType",
    "StabilityReport",
    "Status",
    "SubsystemWitness",
    "SystemInstance",
    "Verdict",
    "brill_noether",
    "check_global_generation",
    "classify",
    "cohomology",
    "critical_alphas",
    "cross_check",
    "decompose",
    "delta_bruteforce",
    "delta_closure",
    "delta_formula",
    "generic_splitting",
    "is_alpha_stable",
    "kernel_splitting",
    "max_subbundle_degree",
    "multiplication_matrix",
    "necessary_region",
    "sample_instance",
    "saturate",
    "stability_interval",
    "vanishing_divisor_degree",
]
