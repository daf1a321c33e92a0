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
