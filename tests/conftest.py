import pathlib
import threading

import numpy as np
import pytest
from hypothesis import settings

from pfconv import CoxParams, GammaProposal, ObservationSeries, make_cox_model, \
    make_gamma_proposal
from pfconv.cox import make_bootstrap_proposal

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE_OBS = REPO_ROOT / "fixtures" / "cox_obs_t12.csv"

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 result does not depend on earlier runs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def philox_key(gen) -> tuple[int, int]:
    """The Philox key a generator draws under: how a test double tells which
    row and step of a block the generator it was handed belongs to."""
    return tuple(gen.bit_generator.state["state"]["key"].tolist())


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves more threads alive than it started with:
    every helper thread (the filter's draw thread) must end with the run
    that started it."""
    before = threading.enumerate()
    yield
    after = threading.enumerate()
    if len(after) > len(before):
        left = [t.name for t in after if t not in before]
        pytest.fail(f"threads left running: {left}")


@pytest.fixture(scope="session")
def cox_params():
    return CoxParams(c=0.5, eta=0.1)


@pytest.fixture(scope="session")
def cox_model(cox_params):
    return make_cox_model(cox_params)


@pytest.fixture(scope="session")
def gamma_proposal():
    return make_gamma_proposal(GammaProposal(alpha=1.5, beta=0.5))


@pytest.fixture(scope="session")
def bootstrap_proposal(cox_params):
    return make_bootstrap_proposal(cox_params)


@pytest.fixture(scope="session")
def fixture_obs_path():
    assert FIXTURE_OBS.exists(), "committed observation fixture is missing"
    return FIXTURE_OBS


@pytest.fixture(scope="session")
def fixture_obs(fixture_obs_path):
    return ObservationSeries.from_csv(fixture_obs_path)


@pytest.fixture(scope="session")
def density_in_bins():
    """mass(grid, edges): the probability mass of a grid density inside
    each [edges[i], edges[i + 1])."""
    def mass(grid, edges: np.ndarray) -> np.ndarray:
        mids = grid.midpoints()
        cell_mass = grid.values * grid.dx
        idx = np.searchsorted(edges, mids, side="right") - 1
        inside = (idx >= 0) & (idx < len(edges) - 1)
        return np.bincount(idx[inside], weights=cell_mass[inside],
                           minlength=len(edges) - 1)

    return mass
