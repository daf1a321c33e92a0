"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def left_block_rows_only(monkeypatch):
    """A wrong block formula: each closed-form step of a tensor product
    (``spaces._tensor_step``) cut to F_e V (x) R^m, without R^n (x) F_e W.
    Only tensor products presented after the patch see it."""
    import diffeolin.spaces as spaces

    real = spaces._tensor_step

    def left_factor_only(left, right):
        return real(left, spaces.Subspace(right.ambient_dim, ()))

    monkeypatch.setattr(spaces, "_tensor_step", left_factor_only)


@pytest.fixture(params=["no rows", "left rows only"])
def wrong_bilinear_block_rows(request, monkeypatch):
    """A wrong bilinear decision: the block rows a form is decided on
    (``bilinear._tensor_rows``) cut to none, so every form is judged
    Smooth, or to the rows r (x) e_j of the left factor, without
    e_i (x) r'.  ``tensor_dual_iso`` and the presentations do not see it."""
    import itertools

    import diffeolin.bilinear as bilinear

    real = bilinear._tensor_rows

    def cut(v, w):
        if request.param == "no rows":
            return iter(())
        return itertools.islice(real(v, w), len(bilinear.presentation(v).supports) * w.dim)

    monkeypatch.setattr(bilinear, "_tensor_rows", cut)
    return request.param
