import pytest

from conic_moduli.extrapolate import loglog_slopes, neville_zero


@pytest.mark.parametrize(
    "xs, ys, message",
    [
        ([0.1, 0.05], [1.0], "need equal, nonempty abscissae and values"),
        ([], [], "need equal, nonempty abscissae and values"),
        ([0.1, 0.05, 0.1], [1.0, 2.0, 3.0], "abscissae must be distinct"),
    ],
    ids=["unequal", "empty", "repeated"],
)
def test_neville_zero_refuses_bad_samples(xs, ys, message):
    with pytest.raises(ValueError, match=message):
        neville_zero(xs, ys)


@pytest.mark.parametrize(
    "xs, ys",
    [([0.1, 0.05], [0.0, 1.0]), ([0.1, 0.05], [1.0, -1.0]), ([0.1, 0.0], [1.0, 2.0]), ([-0.1, 0.05], [1.0, 2.0])],
    ids=["zero-value", "negative-value", "zero-abscissa", "negative-abscissa"],
)
def test_loglog_slopes_refuse_nonpositive_data(xs, ys):
    with pytest.raises(ValueError, match="log-log slopes need positive data"):
        loglog_slopes(xs, ys)
