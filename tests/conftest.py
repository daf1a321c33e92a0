"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def left_block_rows_only(monkeypatch):
    """A wrong block formula: ``spaces._tensor_rows`` cut to the left
    factor's rows S(V) (x) R^m, without R^n (x) S(W).  Only tensor products
    presented after the patch see it."""
    import diffeolin.spaces as spaces

    real = spaces._tensor_rows

    def left_rows_only(left, right):
        return real(left, right)[:len(spaces.presentation(left).rows) * right.dim]

    monkeypatch.setattr(spaces, "_tensor_rows", left_rows_only)
