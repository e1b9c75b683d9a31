"""Grid-based minimization of multi-phase free-boundary energies.

The package minimizes a penalized Dirichlet energy over pairs (fields,
region partition) on uniform grids in one and two dimensions, solves the
associated landscape equation, and ships structure diagnostics that check
the minimizer's interface laws quantitatively: monotonicity-formula
profiles, interface slope balances, boundary-measure densities, and
competitor audits.

Layered modules:

    grid         grids, fields, the face-edge stencil, sampling, distances
    functional   the objective J(u, W) and its admissibility rules
    elliptic     conjugate-gradient field and landscape solves
    minimize     alternating field-solve / label-sweep descent
    competitors  cut-off and harmonic-replacement perturbation audits
    diagnostics  radial profiles, slope checks, densities, blow-ups
    oracle       closed-form references for validation
    cli          batch runner producing text/CSV/graymap artifacts

The top level re-exports only what a short library session needs (the
README example); everything else is imported from its module.
"""

from .competitors import audit, seeded_probes
from .functional import NONNEGATIVE, PowerLaw, make_functional_spec
from .grid import make_field, make_grid
from .minimize import minimize

__version__ = "0.1.0"

__all__ = [
    "NONNEGATIVE",
    "PowerLaw",
    "audit",
    "make_field",
    "make_functional_spec",
    "make_grid",
    "minimize",
    "seeded_probes",
]
