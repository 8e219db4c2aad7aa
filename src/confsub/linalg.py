"""Small dense linear algebra: the transpose of a nested list, order-2
Taylor arithmetic on stacks of float matrices, reduced-row-echelon
kernel bases and per-point products of vectors and matrices.
"""

from __future__ import annotations

import numpy as np


class SingularMatrixError(ValueError):
    pass


def transpose(mat):
    return [list(col) for col in zip(*mat)]


# -- order-2 Taylor arithmetic on float matrices -------------------------
#
# A triple (X, dX, ddX) holds matrices X[p] over a leading point axis with
# their partials dX[p, l] = d_l X[p] and ddX[p, l, j] = d_l d_j X[p], as
# float arrays of shapes (P, r, c), (P, m, r, c) and (P, m, m, r, c).

def taylor_mul(a, b):
    """The triple of AB: d(AB) = dA B + A dB and
    d_l d_j(AB) = d_l d_j A B + d_l A d_j B + d_j A d_l B + A d_l d_j B."""
    x, dx, ddx = a
    y, dy, ddy = b
    cross = dx[:, :, None] @ dy[:, None]
    return (x @ y, dx @ y[:, None] + x[:, None] @ dy,
            ddx @ y[:, None, None] + cross + cross.swapaxes(1, 2)
            + x[:, None, None] @ ddy)


def taylor_inverse(a):
    """The triple of A^{-1}: d_l(A^{-1}) = -A^{-1} d_l A A^{-1} and
    d_l d_j(A^{-1}) = A^{-1}(d_l A A^{-1} d_j A + d_j A A^{-1} d_l A
    - d_l d_j A) A^{-1}.  Raises ``np.linalg.LinAlgError`` where an A is
    singular."""
    x, dx, ddx = a
    inv = np.linalg.inv(x)
    u = dx @ inv[:, None]  # u[p, l] = d_l A A^{-1}
    cross = u[:, :, None] @ u[:, None]
    return inv, -(inv[:, None] @ u), inv[:, None, None] @ (
        cross + cross.swapaxes(1, 2) - ddx @ inv[:, None, None])


def null_space_bases(mats, nullity, tol=1e-10):
    """Kernel bases of a stack of float matrices (P, r, c) via reduced row
    echelon form, as a (P, nullity, c) array.

    Deterministic, and at each point the arithmetic of that matrix alone:
    columns are processed left to right, pivot rows by largest magnitude,
    and the basis vectors follow the free columns in order.  A step that
    changes no point (a swap of no rows, an elimination in a matrix of
    one row, the columns after every row holds a pivot) is skipped, and
    a stack whose points share one pivot pattern fills its bases by
    slices.  Raises SingularMatrixError when a kernel does not have dimension
    ``nullity``."""
    rows = np.array(mats, dtype=float)
    count, nrows, ncols = rows.shape
    # each matrix's largest entry, from its entries as rows of one
    # contiguous copy: the reduction then runs along the point axis
    scale = np.abs(rows.reshape(count, nrows * ncols).T.copy()).max(
        axis=0, initial=0.0)
    scale[scale == 0.0] = 1.0
    at = np.arange(count)
    r = np.zeros(count, dtype=int)  # next pivot row of each point
    is_pivot = np.zeros((count, ncols), dtype=bool)
    for c in range(ncols):
        if (r == nrows).all():
            break
        col = np.abs(rows[:, :, c])
        col[np.arange(nrows) < r[:, None]] = -1.0  # rows already pivoted
        pivot = col.argmax(axis=1)
        ok = col[at, pivot] > tol * scale
        idx, top, pivot = ((at, r, pivot) if ok.all()
                           else (at[ok], r[ok], pivot[ok]))
        swapped = rows[idx, pivot]
        if (pivot != top).any():
            rows[idx, pivot] = rows[idx, top]
        rows[idx, top] = swapped / swapped[:, c, None]
        if nrows > 1:
            factor = rows[idx, :, c]
            factor[np.arange(len(idx)), top] = 0.0
            lead = rows[idx, top][:, None, :]
            rows[idx] = np.where(factor[:, :, None] != 0.0,
                                 rows[idx] - factor[:, :, None] * lead,
                                 rows[idx])
        is_pivot[idx, c] = True
        r[idx] += 1
    if (ncols - r != nullity).any():
        raise SingularMatrixError("kernel dimension differs from nullity")
    basis = np.zeros((count, nullity, ncols))
    # pivot i sits in row i: v[pivots[i]] = -rows[i][free column]
    if count and (is_pivot == is_pivot[0]).all():  # one pivot pattern
        free, pivots = np.nonzero(~is_pivot[0])[0], np.nonzero(is_pivot[0])[0]
        basis[:, np.arange(nullity), free] = 1.0
        basis[:, :, pivots] = -rows[:, :len(pivots), free].transpose(0, 2, 1)
        return basis
    free = np.nonzero(~is_pivot)[1].reshape(count, nullity)
    pivots = np.nonzero(is_pivot)[1].reshape(count, ncols - nullity)
    point, slot = at[:, None, None], np.arange(nullity)[None, :, None]
    basis[point, slot, free[:, :, None]] = 1.0
    row = np.arange(ncols - nullity)[None, None, :]
    basis[point, slot, pivots[:, None, :]] = -rows[point, row,
                                                   free[:, :, None]]
    return basis


# -- products of vectors at every point of a leading point axis ----------
#
# Each is one matrix product per point, as NumPy runs ``a @ v`` or
# ``u @ v`` on the point's own arrays, so a point's value does not depend
# on the points stacked with it.

def mat_vec(a, v):
    """a @ v at every point: a (P, ..., r, c) and v (P, c)."""
    return (a @ v.reshape(v.shape[:1] + (1,) * (a.ndim - 3) + v.shape[1:]
                          + (1,)))[..., 0]


def vec_dot(u, v):
    """u . v at every point, (P,) from (P, m) rows."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def quad_form(u, g, v):
    """u^T g v at every point, as (u @ g) @ v."""
    return vec_dot((u[:, None, :] @ g)[:, 0], v)
