import pytest
from hypothesis import settings

from fpknl.checks import fd_vs_analytic, reference_case

# every run draws the same examples, and no failure stored by an earlier
# run is replayed: a property test passes or fails on its fixed draws
settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")


@pytest.fixture(scope="session")
def ref_case():
    """Flagship 1D configuration used across pathway comparisons."""
    return reference_case()


@pytest.fixture(scope="session")
def fd_base(ref_case):
    """Full-resolution finite-difference run of the flagship case."""
    params, packet = ref_case
    return fd_vs_analytic(params, packet, x_min=-6.0, x_max=6.0,
                          nx=1200, dt=2e-5, t_end=1.0)


@pytest.fixture(scope="session")
def fd_refined(ref_case):
    """Same run with dx and dt halved (nx = 2*1200 - 1 halves dx exactly)."""
    params, packet = ref_case
    return fd_vs_analytic(params, packet, x_min=-6.0, x_max=6.0,
                          nx=2399, dt=1e-5, t_end=1.0)
