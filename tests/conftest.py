import pytest

from nle import catalog, reproduce


@pytest.fixture(autouse=True)
def fresh_catalog_defaults():
    """Each test builds its own catalog defaults: they live for the whole
    process, and a test that patches a kernel must not leave its memos on them."""
    catalog._default.cache_clear()


@pytest.fixture
def table_rows_pass():
    """Assert that the ``nle.reproduce.CHECKS`` entries named by prefix all pass."""

    def check(*prefixes: str) -> None:
        checks = [c for c in reproduce.CHECKS if c.name.startswith(prefixes)]
        assert checks, f"no table entry starts with {prefixes}"
        failed = [row for row in reproduce.run_rows(checks) if row.status != "PASS"]
        assert not failed, failed

    return check
