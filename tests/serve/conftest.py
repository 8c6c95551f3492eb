"""Shared fixtures for the serve suite.

Every test leaves the process-wide observability and quality state
pristine (the serve layer records into the global registry and SLO
tracker), and the tiny service fixture reuses one training-free model
bank so each test is milliseconds, not seconds.
"""

import numpy as np
import pytest

from repro import obs, quality
from repro.serve import (
    AdmissionController,
    DeviceScopeService,
    ModelBank,
    TenantRegistry,
)
from repro.serve.tenancy import consume_work


@pytest.fixture(autouse=True)
def clean_global_state():
    yield
    quality.uninstall()
    obs.disable()
    obs.set_verbose(False)
    obs.set_quiet(False)
    obs.log.set_stream(None)
    obs.set_store(None)
    obs.reset()
    obs.registry.clear()
    # Direct batcher calls outside a request bill this thread's work
    # accumulator; drain it so no later test inherits the bill.
    consume_work()


@pytest.fixture(scope="session")
def bank():
    """One tiny untrained model bank shared by the whole suite (models
    are read-only at serve time, so sharing across tests is safe)."""
    return ModelBank(appliances=("kettle", "microwave"), seed=0)


@pytest.fixture
def service(bank):
    """A fresh service over the shared bank: new tenants, new admission
    state, generous admission floor so tests shed only on purpose."""
    return DeviceScopeService(
        bank=bank,
        registry=TenantRegistry(),
        admission=AdmissionController(min_requests=10_000),
    )


@pytest.fixture
def kettle_watts():
    """A deterministic series with one kettle-shaped spike."""
    rng = np.random.default_rng(7)
    watts = rng.uniform(80, 240, size=256) + 40.0
    watts[60:72] = 2600.0
    return watts
