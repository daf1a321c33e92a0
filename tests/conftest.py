"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def left_block_rows_only(monkeypatch):
    """A wrong block formula: each closed-form step of a tensor product
    (``linalg.tensor_span`` as ``spaces`` calls it) cut to F_e V (x) R^m,
    without R^n (x) F_e W.  Only tensor products presented after the patch
    see it."""
    import diffeolin.spaces as spaces

    real = spaces.tensor_span

    def left_factor_only(left, right):
        return real(left, spaces.Subspace(right.ambient_dim, ()))

    monkeypatch.setattr(spaces, "tensor_span", left_factor_only)


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


@pytest.fixture
def late_hom_basis(monkeypatch):
    """A wrong hom basis for the verify suite: each row r presented at
    degree d constrained to M r in F_(d+1)(W), one degree late, in place of
    F_d(W).  Only ``verify.check_dual_map_smoothness`` sees it."""
    import diffeolin.verify as verify
    from diffeolin.linalg import Subspace, kron_vector, nullspace
    from diffeolin.spaces import presentation

    def late(v, w):
        cod, total = presentation(w), v.dim * w.dim
        constraints = [kron_vector(psi, r) for degree, r in presentation(v).rows
                       for psi in cod.filtration_step(degree + 1).annihilator().basis]
        return Subspace(total, nullspace(constraints, total))

    monkeypatch.setattr(verify, "smooth_hom_basis", late)


@pytest.fixture
def transposed_pushforward(monkeypatch):
    """A wrong pushforward presentation: the rows of the base mapped by the
    transpose of the matrix.  Only pushforwards presented after the patch
    see it."""
    import diffeolin.spaces as spaces
    from diffeolin.linalg import transpose

    real = spaces._build_presentation

    def transposed(space):
        d = space.diffeology
        if isinstance(d, spaces.Pushforward):
            space = spaces.DiffSpace(space.dim, spaces.Pushforward(d.base, transpose(d.matrix)))
        return real(space)

    monkeypatch.setattr(spaces, "_build_presentation", transposed)


@pytest.fixture
def block_swapped_distribute(monkeypatch):
    """A wrong distributivity map for the verify suite: the permutation of
    ``tensor.distribute`` with its V1 (x) V3 rows before its V1 (x) V2 rows,
    so each block of the codomain reads the other summand's slots.  Only
    ``verify.check_distributivity`` sees it."""
    import diffeolin.verify as verify
    from diffeolin.hom import LinearMap
    from diffeolin.tensor import distribute

    def swapped(v1, v2, v3):
        f, split = distribute(v1, v2, v3), v1.dim * v2.dim
        return LinearMap(f.domain, f.codomain, f.matrix[split:] + f.matrix[:split])

    monkeypatch.setattr(verify, "distribute", swapped)
