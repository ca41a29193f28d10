"""rslax: a numerical toolkit for the Ruijsenaars-Schneider and
Calogero-Moser integrable systems.

The package builds Weierstrass/theta special functions with certified
quasi-periodicity, elliptic Cauchy matrices with closed-form Frobenius
determinants, the RS Lax matrix in two independently computed forms
(direct and geometric-composition), the Ruijsenaars, Krichever, spin, and
CM Lax matrices, isospectral flow integration with spectral-drift tracking,
moment-map reductions with a position/action duality map, and quantitative
degeneration/limit sweeps.  The `rslax` command-line tool drives all of it
from JSON experiment configs.
"""

from .cauchy import (
    CauchyMatrixSpec,
    SpectralMatrix,
    build_elliptic_cauchy,
    frobenius_determinant,
    minor_determinant,
    shifted_inverse_product,
)
from .dynamics import (
    HamiltonianSpec,
    PhasePoint,
    Trajectory,
    hamiltonian,
    hamiltonian_vector_field,
    integrate,
    poisson_bracket,
)
from .elliptic import (
    Lattice,
    ThetaCharacteristic,
    TrivialTheta,
    fit_trivial_theta,
    lattice_distance,
    lattice_from_periods,
    legendre_residual,
    rational_lattice,
    section_phi,
    sigma,
    theta_char,
    trig_lattice,
    wp,
    zeta,
)
from .errors import (
    BranchCutWarning,
    CollisionImminent,
    ConfigInvalid,
    DegenerateConfiguration,
    FitDegenerate,
    NoSolution,
    NonConvergent,
    NonFiniteEntries,
    NonDiagonalizable,
    PoleAtLattice,
    RepeatedEigenvalues,
    RslaxError,
    SingularMatrix,
    SingularY,
    StepTooLarge,
    ValueOverflow,
    ZeroLambda,
    ZeroMu,
)
from .lax import (
    CMConfig,
    RSConfig,
    SpinFraming,
    cm_config,
    cm_lax,
    composition_lax,
    factorized_cm_lax,
    hasegawa_lax,
    intertwining_vector,
    krichever_lax,
    rs_config,
    ruijsenaars_equivalent_momenta,
    ruijsenaars_lax,
    spin_lax,
    xi_matrix,
)
from .limits import (
    LimitSweep,
    cm_limit_sweep,
    degeneration_sweep,
    framing_constraint_check,
)
from .reductions import (
    OrbitSpec,
    ReductionPair,
    dualize,
    moment_residual,
    solve_rational_cm,
    solve_rational_rs,
    solve_trig_cm,
    solve_trig_rs,
)

__version__ = "0.1.0"
