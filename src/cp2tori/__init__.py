"""Energy functionals on Lagrangian tori in CP^2 and certified
verification of the inequality chains comparing them to the Clifford
torus."""

__version__ = "0.1.0"

from .elliptic import EllipticModulus
from .family import (AlphaTriple, Branch, DerivedConstants, ModuliPoint,
                     conformal_factor, derive_constants, feasibility_check,
                     g_phases, lemma3_box, lift, lift_data, q_cubic, solve_c2)
from .functionals import (FunctionalValues, HomogeneousParams, clifford_energy,
                          energy_mironov, homogeneous_energy)
from .interval import Certificate, CertStatus, Interval

__all__ = [
    "__version__",
    "EllipticModulus",
    "AlphaTriple", "Branch", "DerivedConstants", "ModuliPoint",
    "conformal_factor", "derive_constants", "feasibility_check",
    "g_phases", "lemma3_box", "lift", "lift_data", "q_cubic", "solve_c2",
    "FunctionalValues", "HomogeneousParams", "clifford_energy",
    "energy_mironov", "homogeneous_energy",
    "Certificate", "CertStatus", "Interval",
]
