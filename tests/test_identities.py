import pytest

from asymflat.identities import hodge_metric_power_identity, identity_suite


def assert_all_pass(checks):
    failed = [c for c in checks if not c.passed]
    assert not failed, "\n".join(
        f"{c.name} (n={c.n}, p={c.p}, q={c.q}): {c.error:.3e} > {c.tol:.1e}"
        for c in failed)


@pytest.mark.parametrize("n", [3, 4])
def test_identity_suite_all_pass(n):
    assert_all_pass(identity_suite(n, seed=0, count=50))


@pytest.mark.parametrize("n", [7, 8])
def test_identity_suite_all_pass_up_to_the_largest_dimension(n):
    # the CLI accepts n up to 8; the largest shuffle tables and gathers of
    # the Bianchi maps, the dx-insertions and the wedge are built only here
    assert_all_pass(identity_suite(n, seed=0, count=5))


def test_identity_suite_covers_field_identities():
    names = {c.name for c in identity_suite(4, seed=1, count=20)}
    for expected in ("D^2 = 0", "Dt^2 = 0", "[D, Dt] = 0",
                     "BD = -DB", "BtDt = -DtBt", "star of metric powers"):
        assert expected in names


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_hodge_metric_power_identity(n):
    assert hodge_metric_power_identity(n) < 1e-12


def test_check_reporting():
    checks = identity_suite(3, seed=2, count=10)
    d = checks[0].to_dict()
    assert set(d) == {"name", "n", "p", "q", "error", "tol", "passed"}
