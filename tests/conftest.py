import sys

import pytest

REFERENCE_PATH = "/root/reference"


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole test run (driver instruction)."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def reference():
    """The reference implementation imported in-process as the oracle
    (SURVEY.md §5.2 — its matcher has no tests of its own, so executing it
    is the only ground truth)."""
    if REFERENCE_PATH not in sys.path:
        sys.path.insert(0, REFERENCE_PATH)
    try:
        import record_matcher.matcher as ref_matcher
        import record_matcher.records as ref_records
    except ImportError as ex:
        pytest.skip(f"reference implementation not importable from "
                    f"{REFERENCE_PATH} ({ex}); oracle parity not checked")
    return ref_records, ref_matcher
