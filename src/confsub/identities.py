"""Residual verification of the curvature identities, Ricci
decompositions and their corollaries for a conformal submersion.

Each identity is a fixed contraction over the orthonormal frame
E = (U_1 .. U_{m-n} | X_1 .. X_n), the vertical frame then the
horizontal one.  One ``IdentityContext`` per run holds every tensor the
checks read at every point of the run, the point axis first: over the
coordinate basis, as it is built, and over E, as a frame-basis array
(name ending in ``_e``, index order in the class docstring).  A check
slices the blocks it needs (``[:, :m-n]`` vertical, ``[:, m-n:]``
horizontal) and computes its left side, right side and each named term
once for all the points, one einsum, product or slice per term;
``_records`` reads the arrays at the check's index tuples into a part of
a ``RecordTable``, a record per point and tuple, and the table builds the
parts of a run's checks in one pass.

Structural rule: the left-hand side of every identity comes from the
ambient chart geometry alone (curvature of the total metric), while the
right-hand side is assembled from the submersion machinery (projectors,
T, A, dilation calculus).  The two sides share no intermediate values
but the one seeding of the total metric with its first and second
partials: the left side reads only the Christoffel symbols and their
partials derived from it, which the right side's covariant derivatives
also read and contract in different ways, and the right side also
inverts the metric for its projectors, so a closed residual is
evidence, not bookkeeping.  Both sides read the float core (g and the
frame).  In terms of the context's arrays:

- left side: ``riem`` (Riemann tensor of the total metric), its
  contraction ``ric_matrix`` and, for T3.4, ``scalar_curvature``; over
  the frame ``riem_e`` and ``ric_e``;
- right side: the O'Neill tensors ``t_tensor`` and ``a_tensor``, their
  covariant derivatives and those of the mean curvatures ``h_vec`` and
  ``hp_vec`` (``_nabla``), f = 1/lambda^2 with ``grad_f`` and
  ``hess_f``, the lifts X_a of the base coordinate fields with every
  nabla_{X_a} X_b (``basic_fields``), and curvature computed on other
  charts: the fiber's own slice chart (``_fiber_curvature``) and the
  base chart (``base_curvature``); over the frame every other ``_e``
  array.  The fiber's slice chart has the vertical block g_v of g for its
  metric, so its curvature reads the vertical blocks of the one metric
  seeding, but its Christoffel symbols are built with g_v^{-1}, not
  g^{-1}: they are not the left side's Gamma.

Every partial of the total side comes from the run's
``submersion.CorePartials`` (three order-2 seedings over all the points:
g, the Jacobian and h o F); Gamma and dGamma come from the metric seeding
alone, so Riem and Hess f read no projector.  A run seeds each
ingredient once over all its points (``geometry.point_partials``): those
three, the float core's Jacobian, the base metric at F(p) and each
vector field a soliton report reads.
``submersion.oneill_contraction`` gives T and A from (P_v, dP_v, Gamma),
H = trace_v(T) / (m - n) with the trace taken against W = P_v g^{-1},
H' = -(lambda^2 / 2) P_v grad f, and the covariant derivatives follow by
the product rule (``IdentityContext._nabla``).  Scalar curvatures are
traces tr(g^{-1} Ric).

Every contraction keeps the arithmetic of one point alone: einsums carry
a ``...`` prefix and no path search, matrix products run per point, and
per-point scalars multiply arrays in the order a single point would, so a
point's values do not depend on the points that share its run.
"""

from __future__ import annotations

import functools
from itertools import (chain, combinations, combinations_with_replacement,
                       repeat)
from typing import NamedTuple

import numpy as np

from . import geometry as geo
from . import submersion as sub
from .linalg import mat_inverse, mat_vec, quad_form

CURVATURE_CHECKS = ("G2.12", "G2.13", "G2.14", "G2.15", "G2.16")
LEMMA31_CHECKS = tuple(f"L3.1.{k}"
                       for k in ("i", "ii", "iii", "iv", "v", "vi"))
RICCI_CHECKS = ("R3.11", "R3.12", "R3.13")
COROLLARY_CHECKS = ("C3.1", "C3.2", "C3.3")
ALL_CHECK_IDS = (CURVATURE_CHECKS + ("P3.1", "E3.3") + LEMMA31_CHECKS
                 + RICCI_CHECKS + COROLLARY_CHECKS + ("T3.4", "L2.1", "L2.2"))

# checks whose general-dilation closure depends on sign conventions the
# source statements leave implicit: their lambda == 1 reductions close on
# the corpus while some general-dilation forms do not, so failing records
# carry a flag instead of hard-failing a run.  The base-soliton constant
# f3/f4 is assembled from the horizontal Ricci decomposition, so its
# report is flagged like C3.1.
CONVENTION_SENSITIVE_IDS = ("G2.16", "L3.1.i", "L3.1.v", "R3.13",
                            "C3.1", "C3.2", "base-soliton")


class Hypothesis(NamedTuple):
    """A named hypothesis, whether it is ``satisfied`` and its
    ``violation``: a bool and a float at one point, (P,) arrays over a
    run's points in an ``IdentityContext``."""

    name: str
    satisfied: bool
    violation: float


def _hypothesis_lists(hyps, count):
    """The list of the ``HYPOTHESIS_SCHEMA`` dicts of ``hyps``, run-level
    ``Hypothesis`` objects, at each of ``count`` points: one list per
    distinct row of (violation bits, satisfied) over them all, -0.0 not
    0.0, found by one dict over the rows' bytes, and one dict per (name,
    satisfied, bits)."""
    keys = np.array([k for h in hyps for k in (
        h.violation.view(np.uint64), h.satisfied)] or [[0] * count],
                    dtype=np.uint64)
    rows = keys.T.copy().view(f"V{8 * len(keys)}").ravel().tolist()
    at = dict(zip(rows, range(count)))  # each distinct row, at a point
    picked = keys[:, list(at.values())]
    ints, shared = picked.tolist(), {}
    lists = [[] for _ in at]
    for h, values, bits, flags in zip(hyps, picked[::2].view(
            np.float64).tolist(), ints[::2], ints[1::2]):
        for row, value, key, met in zip(lists, values, bits, map(bool, flags)):
            row.append(shared.setdefault((h.name, met, key), dict(zip(
                HYPOTHESIS_SCHEMA, (h.name, met, value)))))
    return list(map(dict(zip(at, lists)).__getitem__, rows))


# by verdict code: 0 fail, 1 pass, 2 a hypothesis not met
_VERDICTS = np.array(["fail", "pass", "hypothesis-not-met"], dtype=object)


# the type of each value of a record by its key, the one layout
# ``report.to_json`` writes; each of the ``hypotheses`` is laid out as
# HYPOTHESIS_SCHEMA
RECORD_SCHEMA = {"kind": str, "id": str, "label": str, "point": list[float],
                 "lhs": float, "rhs": float, "abs_residual": float,
                 "rel_residual": float, "hypotheses": list[dict],
                 "verdict": str, "convention_sensitive": bool,
                 "terms": dict[str, float], "note": str}
HYPOTHESIS_SCHEMA = {"name": str, "satisfied": bool, "violation": float}


class RecordTable:
    """Records as one list per ``RECORD_SCHEMA`` key, ``columns`` in its
    order; the ``point`` column holds indices into ``points``, the
    coordinate lists.  ``build_records`` adds a check's records as one of
    ``parts``; a read of ``columns`` builds the parts added since in one
    pass, point by point across them (``_build``).  Records share lists:
    no reader may mutate them."""

    def __init__(self, points=(), parts=()):
        self.points, self.parts = list(points), list(parts)
        self._columns, self._built = {key: [] for key in RECORD_SCHEMA}, 0

    @property
    def columns(self):
        if self._built < len(self.parts):
            _build(self._columns, self.points, self.parts[self._built:])
            self._built = len(self.parts)
        return self._columns

    @classmethod
    def point_major(cls, points, tables):
        """The records of ``tables``, each over ``points``, in one table
        point by point, each point's in their order."""
        return cls(points, [part for t in tables for part in t.parts])

    def rows(self):
        """Each record as a dict laid out as ``RECORD_SCHEMA``, holding its
        coordinate list: the one row view, for tests and library callers."""
        columns = dict(self.columns, point=list(map(
            self.points.__getitem__, self.columns["point"])))
        return [dict(zip(columns, row)) for row in zip(*columns.values())]


def build_records(table, check_id, points, lhs, rhs, hypotheses, tol, *,
                  labels, terms={}, note="", residual=None, scale=None,
                  absolute=False):
    """Add every record of one check to ``table``, one entry each of
    ``points`` (indices into ``table.points``; a point without coordinates
    is never flagged), ``lhs``, ``rhs``, ``hypotheses`` (lists of
    ``HYPOTHESIS_SCHEMA`` dicts, held as given), ``labels``, each array of
    the map ``terms``, and ``residual`` and ``scale``, by default
    |lhs - rhs| and 1 + max(|lhs|, |rhs|, |each term|) (Python's ``max``: a
    NaN counts only in first place).  The verdict is
    ``hypothesis-not-met`` when a hypothesis is unmet, else ``pass`` when
    residual / scale, or the residual when ``absolute``, is at most
    ``tol``, else ``fail``.  They are built on the table's next read."""
    table.parts.append((
        check_id, np.asarray(points, dtype=np.intp),
        np.array([lhs, rhs, *terms.values()], dtype=float), tuple(terms),
        hypotheses, tol, labels, note, residual, scale, absolute))


@np.errstate(all="ignore")  # as Python's float arithmetic, which it replaces
def _build(columns, points, parts):
    """Append the records of ``parts`` (``build_records``) over ``points``
    to ``columns``, each column computed over all of them at once, made a
    list once and put point by point across the parts in one permutation."""
    (ids, indices, floats, names, hyps, tols, labels, notes, residuals,
     scales, absolute) = zip(*parts)
    sizes = [len(i) for i in indices]
    cuts = np.cumsum([0] + sizes).tolist()

    def own(default, values):  # a part's given values, else the default
        return np.concatenate([default[a:b] if v is None else v
                               for a, b, v in zip(cuts, cuts[1:], values)])

    def each(values):  # a part's value once per record
        return chain.from_iterable([v] * n for v, n in zip(values, sizes))

    lhs, rhs = np.concatenate([f[:2] for f in floats], axis=1)
    residual = own(abs(lhs - rhs), residuals)
    # Python's max: a NaN in |lhs| propagates, one in |rhs| or a term not
    mags = np.concatenate([np.fmax.reduce(abs(f)) for f in floats])
    scale = own(np.maximum(abs(lhs), mags) + 1.0, scales)
    rel = residual / scale
    # whether each hypotheses list is met, once per list object
    hyps = list(chain.from_iterable(hyps))
    keys = list(map(id, hyps))
    met = {key: all(h["satisfied"] for h in hs)
           for key, hs in dict(zip(keys, hyps)).items()}
    met = np.fromiter(map(met.__getitem__, keys), bool, len(keys))
    passed = np.where(np.repeat(absolute, sizes), residual, rel) <= np.repeat(
        tols, sizes)
    index = np.concatenate(indices)
    rows = index.tolist()
    # in the order of RECORD_SCHEMA, as ``columns``
    new = [each("identity" if i in ALL_CHECK_IDS else "soliton" for i in ids),
           each(ids), chain.from_iterable(labels), rows, lhs.tolist(),
           rhs.tolist(), residual.tolist(), rel.tolist(), hyps,
           _VERDICTS[np.where(met, passed, 2)].tolist(),
           chain.from_iterable(
               map(bool, map(points.__getitem__, rows[a:b]))
               if cid in CONVENTION_SENSITIVE_IDS else [False] * (b - a)
               for cid, a, b in zip(ids, cuts, cuts[1:])),
           chain.from_iterable(
               map(dict, map(zip, repeat(n), zip(*f[2:].tolist()))) if n
               else [{}] * f.shape[1] for n, f in zip(names, floats)),
           each(notes)]
    order = (np.argsort(index, kind="stable").tolist()
             if len(parts) > 1 and (index[1:] < index[:-1]).any() else None)
    for column, values in zip(columns.values(), new):
        values = list(values)
        column.extend(map(values.__getitem__, order) if order else values)


def record(table, check_id, point, lhs, rhs, hypotheses, tol, *, terms=(),
           label="", note="", residual=None, scale=None, absolute=False):
    """The one-row call of ``build_records``, of a point's coordinates,
    ``Hypothesis`` objects and a name-to-value map ``terms``: appends the
    record, and its coordinate list to ``table.points``."""
    table.points.append([float(c) for c in point])
    build_records(
        table, check_id, [len(table.points) - 1], [float(lhs)], [float(rhs)],
        [[{"name": h.name, "satisfied": bool(h.satisfied),
           "violation": float(h.violation)} for h in hypotheses]], tol,
        labels=[label], terms={k: [float(v)] for k, v in dict(terms).items()},
        note=note, residual=None if residual is None else [float(residual)],
        scale=None if scale is None else [float(scale)], absolute=absolute)


# values within WORST_BAND * (1 + |max|) of the largest tie for the worst
WORST_BAND = 1e-12


def worst_of(items, key):
    """The first of ``items``, in order, whose ``key`` lies within the
    rounding band ``WORST_BAND * (1 + |max|)`` of the largest key, a NaN
    key the largest, or None for no items: a reassociated sum that moves
    tied values by rounding does not move the pick."""
    items = list(items)
    if not items:
        return None
    values = [key(item) for item in items]
    top = max(values, key=lambda v: (v != v, v))
    floor = top - WORST_BAND * (1.0 + abs(top))
    return next((item for item, v in zip(items, values) if v >= floor),
                items[values.index(top)])


# ---------------------------------------------------------------------
# run-level evaluation context
# ---------------------------------------------------------------------

def _on_frame(x, *mats):
    """``x`` (P, i, j, ...) with ``mats[s]`` (P, r, i) contracted into its
    slot s at every point:
    out[p, r, s, ...] = sum x[p, i, j, ...] mats[0][p, r, i]
    mats[1][p, s, j] ...; each step contracts the first slot and appends
    the new one last."""
    for mat in mats:
        count, k = x.shape[:2]
        x = (x.reshape(count, k, -1).swapaxes(1, 2)
             @ mat.swapaxes(1, 2)).reshape(x.shape[:1] + x.shape[2:]
                                           + mat.shape[1:2])
    return x


def _norms(vecs):
    """The Euclidean norms of the frame-component vectors
    ``vecs[p, a, b, c]`` over the pairs (a, b)."""
    return np.sqrt(np.einsum("...abc,...abc->...ab", vecs, vecs))


def _sup_norm(vecs):
    return _norms(vecs).max(axis=(1, 2))


def _traces(ginv, ric):
    """Scalar curvatures tr(g^{-1} Ric) at every point."""
    return np.einsum("...jk,...jk->...", ginv, ric)


class IdentityContext:
    """The frame, curvature, O'Neill tensors and dilation calculus at
    every point of a run, shared by every check.  Every array holds the
    point axis first; the indices below follow it.

    Coordinate-basis arrays: ``riem[p, l, k, i, j]`` is component l of
    R(e_i, e_j) e_k, ``t_tensor[p, k, a, b]`` component k of T_{e_a} e_b
    (likewise ``a_tensor``), and the covariant derivatives in ``_nabla``
    carry the differentiating direction right after the point.

    Frame-basis arrays (suffix ``_e``) over E = ``frame``, the rows
    U_1 .. U_{m-n}, X_1 .. X_n; an index is a frame index, vertical ones
    first, and a vector slot holds the components g(., E_c):
    ``gram[p, r, s]`` = g(E_r, E_s); ``riem_e[p, a, b, c, d]`` =
    g(R(E_a, E_b) E_c, E_d); ``ric_e[p, a, b]`` = Ric(E_a, E_b);
    ``t_e[p, a, b, c]`` = g(T_{E_a} E_b, E_c), likewise ``a_e``;
    ``nu_e[p, a, b, c]`` = g(v[X_a, X_b], E_c) = g(A_{X_a} X_b -
    A_{X_b} X_a, E_c) over horizontal a, b; ``dt_e[p, e, a, b, c]`` =
    g((nabla_{E_e} T)_{E_a} E_b, E_c), likewise ``da_e``;
    ``dh_e[p, e, c]`` = g(nabla_{E_e} H, E_c), likewise ``dhp_e`` for H';
    ``h_e[p, c]`` = g(H, E_c); ``df_e[p, c]`` = E_c(f); ``vdf_e[p, c]`` =
    g(grad_v f, E_c); ``hess_e[p, a, b]`` = Hess f(E_a, E_b);
    ``base_riem_e[p, a, b, c, d]`` = h(R^N(F_*X_a, F_*X_b) F_*X_c, F_*X_d)
    and ``base_ric_e[p, a, b]`` = Ric^N(F_*X_a, F_*X_b) over horizontal
    indices only; ``fiber_riem_e`` and ``fiber_ric_e`` the fiber's own
    Riem and Ric over vertical indices only (zero for one-dimensional
    fibers).

    (P,) arrays read by several checks: ``lam_sq`` = lambda^2,
    ``grad_f_sq`` = |grad f|^2, ``vgrad_f_sq`` = |grad_v f|^2, ``hp_f`` =
    H'(f), ``div_hprime`` and the scalar curvatures; each ``hyp_*`` is a
    ``Hypothesis`` of (P,) arrays.

    The constructor builds the points' coordinates, ``coords`` (P, m),
    once, and holds the arrays of ``setup.float_cores(coords)`` by name:
    ``g``, ``ginv``, ``jac``, ``frame`` (``vframe``, then ``hframe``),
    ``pv``, ``ph``, ``lam_sq``, ``base_coords`` (F(p)), ``h_base``,
    ``push`` (F_* X_a over the horizontal frame) and ``anisotropy``, with
    ``partials``, the points' ``sub.CorePartials``.  A hypothesis holds
    where its violation is at most ``submersion.PROPERTY_TOL``.  Everything
    else is a cached property, built on first read for every point at
    once from only the arrays it needs, so a check pays only for what it
    reads, and an ingredient that cannot be evaluated fails only the
    checks that read it.  ``partials`` build each entry on first read,
    raising, where one point fails, the error of the first failing point
    (``geometry.each_point``)."""

    def __init__(self, setup, points):
        self.setup = setup
        self.points = list(points)
        self.m = setup.m
        self.n = setup.n
        self.coords = np.fromiter(chain.from_iterable(
            p.coords for p in self.points), float).reshape(len(self.points), -1)
        (self.g, self.ginv, self.jac, self.frame, self.pv, self.ph,
         self.lam_sq, self.base_coords, self.h_base, self.push,
         self.anisotropy) = setup.float_cores(self.coords)
        self.partials = sub.CorePartials(setup, self.coords, self.base_coords)
        self.vframe = self.frame[:, :self.m - self.n]
        self.hframe = self.frame[:, self.m - self.n:]
        self._fields = {}  # of ``vector_field``
        # each point's coordinates, the one list its records share, and by
        # the names of hypotheses, one list of their dicts per equal points
        self.point_lists = self.coords.tolist()
        self.hypothesis_lists = {}

    # -- ingredients built on first read ----------------------------------

    @functools.cached_property
    def gamma(self):
        return self.partials.christoffels[0]

    @functools.cached_property
    def riem(self):
        return geo.riemann_from_christoffels(*self.partials.christoffels)

    @functools.cached_property
    def ric_matrix(self):
        return np.einsum("...ikij->...jk", self.riem)

    @functools.cached_property
    def grad_f(self):
        """grad f = g^{-1} df of the dilation function f = 1 / lambda^2."""
        df = self.partials.inv_lambda_sq[1]
        return sum(self.ginv[:, :, j] * df[:, j, None] for j in range(self.m))

    @functools.cached_property
    def vgrad_f(self):
        return mat_vec(self.pv, self.grad_f)

    @functools.cached_property
    def hgrad_f(self):
        return mat_vec(self.ph, self.grad_f)

    @functools.cached_property
    def hess_f(self):
        """Hess f = d_i d_j f - Gamma^k_ij d_k f."""
        _, df, d2f = self.partials.inv_lambda_sq
        return d2f - sum(self.gamma[:, k] * df[:, k, None, None]
                         for k in range(self.m))

    @functools.cached_property
    def grad_f_sq(self):
        """|grad f|^2."""
        return quad_form(self.grad_f, self.g, self.grad_f)

    @functools.cached_property
    def vgrad_f_sq(self):
        """|grad_v f|^2."""
        return quad_form(self.vgrad_f, self.g, self.vgrad_f)

    @functools.cached_property
    def hp_vec(self):
        # H' = -(lambda^2 / 2) v grad f
        return (-0.5 * self.lam_sq)[:, None] * self.vgrad_f

    @functools.cached_property
    def hp_f(self):
        """H'(f) = g(H', grad f)."""
        return quad_form(self.hp_vec, self.g, self.grad_f)

    @functools.cached_property
    def t_tensor(self):
        return self.partials.oneill[0]

    @functools.cached_property
    def a_tensor(self):
        return self.partials.oneill[1]

    @functools.cached_property
    def h_vec(self):
        return sub.mean_curvature_from(self.t_tensor,
                                       self.partials.vtrace_form[0],
                                       self.m - self.n)

    @functools.cached_property
    def _nabla(self):
        """(nabla T, nabla A, nabla H, nabla H') indexed [p, l, k, a, b]
        and [p, l, k] with l the differentiating direction.  The partials
        follow from (P_v, dP_v, d2P_v), (Gamma, dGamma), (df, d2f) and g by
        the product rule, with dP_h = -dP_v:
        dN = d2P_v + dGamma P_v + Gamma dP_v,
        dM = dP_v (Gamma - 2 N) + P_h dN + P_v (dGamma - dN),
        dT = dP_v M + P_v dM, dA = -dP_v M + P_h dM,
        dH = (dT W + T dW) / (m - n) and, with d lambda^2 = -lambda^4 df,
        dH' = -(d lambda^2 W df + lambda^2 (dW df + W d2f)) / 2;
        the Gamma terms then make them covariant.  T and A are tensors,
        so this is (nabla_E T)_U E' = nabla_E (T_U E') - T_{nabla_E U} E'
        - T_U (nabla_E E') for any fields extending U and E'."""
        partials = self.partials
        gam, dgam = partials.christoffels
        pv, dpv, d2pv = partials.pv
        ph, lam_sq = self.ph, self.lam_sq
        t, a, nv, mix = partials.oneill
        dnv = (d2pv.swapaxes(-3, -2)
               + np.einsum("...lkij,...jb->...lkib", dgam, pv)
               + np.einsum("...kij,...ljb->...lkib", gam, dpv))
        dmix = (np.einsum("...lkq,...qib->...lkib", dpv, gam - 2.0 * nv)
                + np.einsum("...kq,...lqib->...lkib", ph, dnv)
                + np.einsum("...kq,...lqib->...lkib", pv, dgam - dnv))
        dm_term = np.einsum("...lia,...kib->...lkab", dpv, mix)
        dt = dm_term + np.einsum("...ia,...lkib->...lkab", pv, dmix)
        da = -dm_term + np.einsum("...ia,...lkib->...lkab", ph, dmix)
        w, dw = partials.vtrace_form
        dh = (np.einsum("...lkab,...ab->...lk", dt, w)
              + np.einsum("...kab,...lab->...lk", t, dw)) / (self.m - self.n)
        _, df, d2f = partials.inv_lambda_sq
        dlam_sq = (-lam_sq ** 2)[:, None] * df
        dhp = -0.5 * (dlam_sq[:, :, None] * mat_vec(w, df)[:, None, :]
                      + lam_sq[:, None, None] * (mat_vec(dw, df)
                                                 + d2f @ w.swapaxes(-1, -2)))

        def tensor(partial, x):
            return (partial
                    + np.einsum("...klj,...jab->...lkab", gam, x)
                    - np.einsum("...jla,...kjb->...lkab", gam, x)
                    - np.einsum("...jlb,...kaj->...lkab", gam, x))

        def vector(partial, x):
            return partial + np.einsum("...klj,...j->...lk", gam, x)

        return (tensor(dt, t), tensor(da, a),
                vector(dh, self.h_vec), vector(dhp, self.hp_vec))

    @functools.cached_property
    def scalar_curvature(self):
        """s = tr(g^{-1} Ric) of the total metric."""
        return _traces(self.ginv, self.ric_matrix)

    @functools.cached_property
    def basic_fields(self):
        """(X, D, nabla) of ``sub.basic_field_derivatives``: the lifts X_a
        of the base coordinate fields and every nabla_{X_a} X_b."""
        return sub.basic_field_derivatives(*self.partials.lift[:2],
                                           self.gamma)

    def vector_field(self, xi):
        """(xi, dxi, L_xi g) of a total-chart field at the points as float
        arrays, dxi[p, i, k] = d_i xi^k, from one seeding over all the
        points, kept for every soliton fit and report that reads the field.
        ``xi`` is a ``VectorFieldSpec`` or a component function."""
        if xi not in self._fields:
            v, dv = geo.point_partials(geo.field_fn(self.setup.total, xi),
                                       self.coords, order=1)
            self._fields[xi] = (v, dv, geo.lie_derivative_matrix(
                self.g, self.gamma, v, dv))
        return self._fields[xi]

    @functools.cached_property
    def base_curvature(self):
        """(Gamma^N, Riem^N, Ric^N) of the base metric at F(p), indexed
        like ``gamma``, ``riem`` and ``ric_matrix``."""
        return self.partials.base_curvature

    @functools.cached_property
    def base_scalar_curvature(self):
        """s^N = tr(h^{-1} Ric^N) at F(p)."""
        return _traces(np.array([mat_inverse(h)
                                 for h in self.h_base.tolist()]),
                       self.base_curvature[2])

    @functools.cached_property
    def fiber_coordinates(self):
        """Each point's fiber coordinates (``sub.fiber_coordinates``), or
        None where the fiber has no slice chart."""
        return sub.fiber_coordinates(self.jac, self.m - self.n)

    @functools.cached_property
    def _fiber_curvature(self):
        """(fiber coordinates, fiber metric, fiber Riem, fiber Ric) on the
        slice chart of the fiber through each point, each with the point
        axis first.  The slice chart's metric is the block g_v of g on the
        fiber coordinates and its partials along the slice are the same
        blocks of the metric's partials, so one contraction over the
        blocks of the run's metric seeding gives every point's curvature.
        A point without a slice chart reads its first coordinates, every
        value NaN: its records fail ``hyp_fiber_chart``."""
        coords = self.fiber_coordinates
        missing = np.array([c is None for c in coords])
        idx = np.array([c or list(range(self.m - self.n)) for c in coords])
        blocks = []
        for x in self.partials.metric:
            for axis in range(1, x.ndim):
                shape = [len(idx)] + [1] * (x.ndim - 1)
                shape[axis] = -1
                x = np.take_along_axis(x, idx.reshape(shape), axis)
            x[missing] = np.nan
            blocks.append(x)
        riem = geo.riemann_from_christoffels(
            *geo.christoffels_from_metric(*blocks))
        return idx, blocks[0], riem, np.einsum("...ikij->...jk", riem)

    @functools.cached_property
    def fiber_scalar_intrinsic(self):
        """s^v = tr(g_v^{-1} Ric^v) on the fiber chart; 0 for
        1-dimensional fibers."""
        if self.m - self.n == 1:
            return np.zeros(len(self.points))
        _, gf, _, ric = self._fiber_curvature
        return _traces(np.array([mat_inverse(g) for g in gf.tolist()]), ric)

    # -- frame-basis arrays -----------------------------------------------

    @functools.cached_property
    def _lower(self):
        """g E^T: ``v @ _lower`` holds the frame components g(v, E_c)."""
        return self.g @ self.frame.swapaxes(1, 2)

    def _vector_slots(self, x, axes):
        """A coordinate-basis array (P, ...), its slots after the point put
        in the order ``axes`` with the vector slot last, with E on every
        other slot and the vector lowered onto E."""
        x = x.transpose((0,) + tuple(a + 1 for a in axes))
        return _on_frame(x, *[self.frame] * (x.ndim - 2),
                         self._lower.swapaxes(1, 2))

    @functools.cached_property
    def gram(self):
        return self.frame @ self._lower

    # the coordinate-basis arrays over the frame, slots as listed above
    riem_e = functools.cached_property(
        lambda ctx: ctx._vector_slots(ctx.riem, (2, 3, 1, 0)))
    t_e = functools.cached_property(
        lambda ctx: ctx._vector_slots(ctx.t_tensor, (1, 2, 0)))
    a_e = functools.cached_property(
        lambda ctx: ctx._vector_slots(ctx.a_tensor, (1, 2, 0)))
    dt_e = functools.cached_property(
        lambda ctx: ctx._vector_slots(ctx._nabla[0], (0, 2, 3, 1)))
    da_e = functools.cached_property(
        lambda ctx: ctx._vector_slots(ctx._nabla[1], (0, 2, 3, 1)))
    dh_e = functools.cached_property(
        lambda ctx: ctx._vector_slots(ctx._nabla[2], (0, 1)))
    dhp_e = functools.cached_property(
        lambda ctx: ctx._vector_slots(ctx._nabla[3], (0, 1)))
    h_e = functools.cached_property(
        lambda ctx: ctx._vector_slots(ctx.h_vec, (0,)))
    df_e = functools.cached_property(
        lambda ctx: ctx._vector_slots(ctx.grad_f, (0,)))
    vdf_e = functools.cached_property(
        lambda ctx: ctx._vector_slots(ctx.vgrad_f, (0,)))

    @functools.cached_property
    def ric_e(self):
        return (self.frame @ self.ric_matrix.swapaxes(1, 2)
                @ self.frame.swapaxes(1, 2))

    @functools.cached_property
    def hess_e(self):
        return self.frame @ self.hess_f @ self.frame.swapaxes(1, 2)

    @functools.cached_property
    def nu_e(self):
        nv = self.m - self.n
        a_hh = self.a_e[:, nv:, nv:]
        return a_hh - a_hh.swapaxes(1, 2)

    @functools.cached_property
    def div_hprime(self):
        """Divergence of H' along the fiber, sum_i g(nabla_{U_i} H', U_i).

        H' is a vertical field; the closed forms that mention div(H')
        close numerically only under the fiber reading, not the full
        m-dimensional divergence.
        """
        nv = self.m - self.n
        return np.trace(self.dhp_e[:, :nv, :nv], axis1=1, axis2=2)

    @functools.cached_property
    def base_riem_e(self):
        push = self.push  # F_*X_a, one row per horizontal frame vector
        return _on_frame(self.base_curvature[1].transpose(0, 3, 4, 2, 1),
                         push, push, push, push @ self.h_base)

    @functools.cached_property
    def base_ric_e(self):
        return (self.push @ self.base_curvature[2].swapaxes(1, 2)
                @ self.push.swapaxes(1, 2))

    @functools.cached_property
    def fiber_riem_e(self):
        if self.m - self.n == 1:
            return np.zeros((len(self.points), 1, 1, 1, 1))
        _, gf, riem, _ = self._fiber_curvature
        ev = self._fiber_frame
        return _on_frame(riem.transpose(0, 3, 4, 2, 1), ev, ev, ev, ev @ gf)

    @functools.cached_property
    def fiber_ric_e(self):
        if self.m - self.n == 1:
            return np.zeros((len(self.points), 1, 1))
        ev = self._fiber_frame
        return ev @ self._fiber_curvature[3] @ ev.swapaxes(1, 2)

    @functools.cached_property
    def _fiber_frame(self):
        """The vertical frame over each point's fiber coordinates."""
        idx = self._fiber_curvature[0]
        return np.take_along_axis(self.vframe, idx[:, None, :], axis=2)

    # -- structural hypotheses at the points ------------------------------

    def _hypothesis(self, name, violation):
        return Hypothesis(name, violation <= sub.PROPERTY_TOL, violation)

    @functools.cached_property
    def hyp_conformal(self):
        return self._hypothesis("conformal", self.anisotropy)

    @functools.cached_property
    def hyp_fiber_chart(self):
        if self.m - self.n == 1:
            ok = np.ones(len(self.points), dtype=bool)
        else:
            ok = np.array([c is not None for c in self.fiber_coordinates])
        return Hypothesis("fiber-chart-available", ok, np.where(ok, 0.0, 1.0))

    # T is symmetric on vertical pairs and v[X_a, X_b] antisymmetric, so
    # the suprema run over every pair of the frame block

    @functools.cached_property
    def hyp_fibers_tg(self):
        """sup |T(U_i, U_j)|."""
        nv = self.m - self.n
        return self._hypothesis("fibers-totally-geodesic",
                                _sup_norm(self.t_e[:, :nv, :nv]))

    @functools.cached_property
    def hyp_umbilical(self):
        """sup |T(U_i, U_j) - g(U_i, U_j) H|."""
        nv = self.m - self.n
        umb = (self.t_e[:, :nv, :nv]
               - self.gram[:, :nv, :nv, None] * self.h_e[:, None, None])
        return self._hypothesis("umbilical-fibers", _sup_norm(umb))

    @functools.cached_property
    def hyp_horizontal_tg(self):
        """sup |A(X_a, X_b)|."""
        nv = self.m - self.n
        return self._hypothesis("horizontal-totally-geodesic",
                                _sup_norm(self.a_e[:, nv:, nv:]))

    @functools.cached_property
    def hyp_horizontal_integrable(self):
        """sup |v[X_a, X_b]|."""
        return self._hypothesis("horizontal-integrable",
                                _sup_norm(self.nu_e))

    @functools.cached_property
    def hyp_homothetic(self):
        return self._hypothesis("homothetic", np.sqrt(np.maximum(
            0.0, quad_form(self.hgrad_f, self.g, self.hgrad_f))))

    @functools.cached_property
    def hyp_map_tg(self):
        return self._hypothesis("map-totally-geodesic", np.max([
            self.hyp_fibers_tg.violation, self.hyp_horizontal_tg.violation,
            self.hyp_homothetic.violation], axis=0))


# ---------------------------------------------------------------------
# records from arrays
# ---------------------------------------------------------------------

def _pairs(k):
    """Index pairs i < j below k, in loop order."""
    return list(combinations(range(k), 2))


def _upper(k):
    """Index pairs i <= j below k, in loop order."""
    return list(combinations_with_replacement(range(k), 2))


@functools.lru_cache(maxsize=None)
def _layout(label, index):
    """(indexer, labels) of ``_records`` for a tuple of index tuples: the
    point axis followed by one integer array per slot, and the 1-based
    labels; every run of the same dimensions reuses them."""
    slots = tuple(np.array(index, dtype=int).reshape(len(index), -1).T)
    # one empty tuple reads a (P,) array as (P, 1)
    return ((slice(None),) + (slots or (None,)),
            [label.format(*(i + 1 for i in idx)) for idx in index])


def _records(identity_id, ctx, tol, hyps, label, index, lhs, rhs, terms=(),
             residual=None, scale=None, note=""):
    """A ``RecordTable`` over the run's points, point by point, one record
    per index tuple of ``index`` (its 1-based numbers formatted by
    ``label``), of the arrays read at the tuples after the point axis (an
    empty tuple reads (P,) arrays): ``lhs``, ``rhs``, each of the (name,
    array) ``terms``, ``residual`` and ``scale``."""
    at, labels = _layout(label, tuple(map(tuple, index)))
    count, size = len(labels), len(ctx.points)

    def flat(x):  # point by point, each point's tuples in order
        return None if x is None else x[at].reshape(-1)

    names = tuple(h.name for h in hyps)
    if names not in ctx.hypothesis_lists:
        ctx.hypothesis_lists[names] = _hypothesis_lists(hyps, size)
    table = RecordTable(ctx.point_lists)
    build_records(
        table, identity_id, np.arange(size).repeat(count), flat(lhs),
        flat(rhs),
        list(chain.from_iterable(zip(*[ctx.hypothesis_lists[names]] * count))),
        tol, labels=labels * size, terms={name: flat(v) for name, v in terms},
        note=note, residual=flat(residual), scale=flat(scale))
    return table


def _trivial(identity_id, ctx, hyps, tol, note):
    return _records(identity_id, ctx, tol, hyps, "", [()],
                    *[np.zeros(len(ctx.points))] * 2, note=note)


def _outer(u, v):
    """u[a] v[b] at every point."""
    return u[:, :, None] * v[:, None, :]


def _kulkarni_nomizu(h, k):
    """(h o k)[a, b, c, d] = h_ac k_bd + h_bd k_ac - h_ad k_bc - h_bc k_ad."""
    return (np.einsum("...ac,...bd->...abcd", h, k)
            + np.einsum("...bd,...ac->...abcd", h, k)
            - np.einsum("...ad,...bc->...abcd", h, k)
            - np.einsum("...bc,...ad->...abcd", h, k))


# ---------------------------------------------------------------------
# curvature identities (2.12)-(2.16)
# ---------------------------------------------------------------------

def _g212(ctx, tol):
    hyps = [ctx.hyp_conformal, ctx.hyp_fiber_chart]
    nv = ctx.m - ctx.n
    if nv < 2:
        return _trivial("G2.12", ctx, hyps, tol, "no distinct vertical pair")
    v = slice(nv)
    t = ctx.t_e[:, v, v]
    # g(T_{U_i} U_k, T_{U_j} U_l)
    t1 = np.einsum("...ikc,...jlc->...ijkl", t, t)
    t2 = t1.swapaxes(1, 2)
    rnu = ctx.fiber_riem_e
    pairs = _pairs(nv)
    return _records(
        "G2.12", ctx, tol, hyps, "U{} V{} W{} S{}",
        [p + q for p in pairs for q in pairs],
        ctx.riem_e[:, v, v, v, v], rnu + t1 - t2,
        (("R_nu", rnu), ("g(T_UW,T_VS)", t1), ("-g(T_VW,T_US)", -t2)))


def _g213(ctx, tol):
    hyps = [ctx.hyp_conformal]
    nv = ctx.m - ctx.n
    if nv < 2:
        return _trivial("G2.13", ctx, hyps, tol, "no distinct vertical pair")
    v, h = slice(nv), slice(nv, None)
    t1 = ctx.dt_e[:, v, v, v, h]
    t2 = t1.swapaxes(1, 2)
    return _records(
        "G2.13", ctx, tol, hyps, "U{} V{} W{} X{}",
        [p + (k, a) for p in _pairs(nv) for k in range(nv)
         for a in range(ctx.n)],
        ctx.riem_e[:, v, v, v, h], t1 - t2,
        (("(nabla_U T)_V W", t1), ("-(nabla_V T)_U W", -t2)))


def _g214(ctx, tol):
    hyps = [ctx.hyp_conformal]
    nv = ctx.m - ctx.n
    v, h = slice(nv), slice(nv, None)
    a_hv, t_vh = ctx.a_e[:, h, v], ctx.t_e[:, v, h]
    t1 = ctx.da_e[:, v, h, h, v]
    t2 = np.einsum("...aic,...bjc->...iabj", a_hv, a_hv)
    t3 = ctx.dt_e[:, h, v, h, v].swapaxes(1, 2)
    t4 = np.einsum("...jbc,...iac->...iabj", t_vh, t_vh)
    t5 = ctx.lam_sq[:, None, None, None, None] * np.einsum(
        "...abi,...j->...iabj", ctx.a_e[:, h, h, v], ctx.vdf_e[:, v])
    return _records(
        "G2.14", ctx, tol, hyps, "U{} X{} Y{} V{}", np.ndindex(t1.shape[1:]),
        ctx.riem_e[:, v, h, h, v], t1 + t2 - t3 - t4 + t5,
        (("(nabla_U A)_X Y", t1), ("g(A_XU,A_YV)", t2),
         ("-(nabla_X T)_U Y", -t3), ("-g(T_VY,T_UX)", -t4),
         ("lam^2 g(A_XY,U)g(V,grad_v f)", t5)))


def _g215(ctx, tol):
    hyps = [ctx.hyp_conformal]
    if ctx.n < 2:
        return _trivial("G2.15", ctx, hyps, tol, "no distinct horizontal pair")
    nv = ctx.m - ctx.n
    v, h = slice(nv), slice(nv, None)
    t1 = ctx.da_e[:, h, h, h, v]
    t2 = t1.swapaxes(1, 2)
    t3 = np.einsum("...icx,...abx->...abci", ctx.t_e[:, v, h], ctx.nu_e)
    return _records(
        "G2.15", ctx, tol, hyps, "X{} Y{} Z{} U{}",
        [p + (c, i) for p in _pairs(ctx.n) for c in range(ctx.n)
         for i in range(nv)],
        ctx.riem_e[:, h, h, h, v], t1 - t2 - t3,
        (("(nabla_X A)_Y Z", t1), ("-(nabla_Y A)_X Z", -t2),
         ("-g(T_UZ, v[X,Y])", -t3)))


def _g216(ctx, tol):
    hyps = [ctx.hyp_conformal]
    n = ctx.n
    if n < 2:
        return _trivial("G2.16", ctx, hyps, tol, "no distinct horizontal pair")
    h = slice(ctx.m - n, None)
    lam_sq, gram, nu = ctx.lam_sq, ctx.gram[:, h, h], ctx.nu_e
    per_point = (slice(None),) + (None,) * 4
    base = ctx.base_riem_e / lam_sq[per_point]
    brackets = 0.25 * (np.einsum("...acx,...bdx->...abcd", nu, nu)
                       - np.einsum("...bcx,...adx->...abcd", nu, nu)
                       + 2.0 * np.einsum("...abx,...cdx->...abcd", nu, nu))
    hess = (0.5 * lam_sq)[per_point] * _kulkarni_nomizu(gram,
                                                         ctx.hess_e[:, h, h])
    df = ctx.df_e[:, h]
    quartic = (-0.25 * lam_sq ** 2)[per_point] * _kulkarni_nomizu(
        (0.5 * ctx.grad_f_sq)[:, None, None] * gram + _outer(df, df), gram)
    return _records(
        "G2.16", ctx, tol, hyps, "X{} Y{} Z{} L{}",
        [p + (c, d) for p in _pairs(n) for c in range(n) for d in range(n)],
        ctx.riem_e[:, h, h, h, h], base + brackets + hess + quartic,
        (("base-curvature/lam^2", base), ("bracket-terms", brackets),
         ("hessian-terms", hess), ("gradient-terms", quartic)))


# ---------------------------------------------------------------------
# Prop 3.1, Eq. (3.3), Lemma 3.1
# ---------------------------------------------------------------------

def verify_A_formula(identity_id, ctx, tol=1e-6):
    """P3.1: A_X Y = (1/2){v[X,Y] - lam^2 g(X,Y) grad_v f}; E3.3: the
    derived relation A_Y X + A_X Y + lam^2 g(X,Y) grad_v f = 0."""
    h = slice(ctx.m - ctx.n, None)
    axy = ctx.a_e[:, h, h]
    grad_term = (ctx.lam_sq[:, None, None, None] * ctx.gram[:, h, h, None]
                 * ctx.vdf_e[:, None, None])
    if identity_id == "P3.1":
        closed = 0.5 * (ctx.nu_e - grad_term)
        res = _norms(axy - closed)
        lhs, rhs = _norms(axy), _norms(closed)
    else:
        res = _norms(axy.swapaxes(1, 2) + axy + grad_term)
        lhs, rhs = res, np.zeros_like(res)
    return _records(identity_id, ctx, tol, [ctx.hyp_conformal], "X{} Y{}",
                    np.ndindex(res.shape[1:]), lhs, rhs, residual=res,
                    scale=1.0 + _norms(axy))


def verify_lemma_3_1(item, ctx, tol=1e-6):
    hyps = [ctx.hyp_conformal, ctx.hyp_horizontal_integrable]
    n, nv, lam4 = ctx.n, ctx.m - ctx.n, ctx.lam_sq ** 2
    v, h = slice(nv), slice(nv, None)
    gram = ctx.gram[:, h, h]
    if item in ("i", "vi"):
        a_hv = ctx.a_e[:, h, v]
    if item == "i":
        vdf = ctx.vdf_e[:, v]
        lhs = np.einsum("...aic,...ajc->...ij", a_hv, a_hv)
        rhs = (n ** 2 * lam4 / 4.0)[:, None, None] * _outer(vdf, vdf)
        label = "U{} V{}"
    elif item == "ii":
        lhs = np.einsum("...iaaj->...ij", ctx.da_e[:, v, h, h, v])
        rhs, label = n * ctx.dhp_e[:, v, v], "U{} V{}"
    elif item == "iii":
        lhs = np.einsum("...abbi->...ai", ctx.da_e[:, h, h, h, v])
        rhs, label = n * ctx.dhp_e[:, h, v], "X{} U{}"
    elif item == "iv":
        lhs = np.einsum("...babi->...ai", ctx.da_e[:, h, h, h, v])
        rhs, label = gram @ ctx.dhp_e[:, h, v], "X{} U{}"
    elif item == "v":
        lhs = np.einsum("...iabi->...ab", ctx.da_e[:, v, h, h, v])
        rhs, label = gram * ctx.div_hprime[:, None, None], "X{} Y{}"
    else:  # vi
        lhs = np.einsum("...aic,...bic->...ab", a_hv, a_hv)
        rhs = (gram * lam4[:, None, None] / 4.0
               * ctx.vgrad_f_sq[:, None, None])
        label = "X{} Y{}"
    return _records(f"L3.1.{item}", ctx, tol, hyps, label,
                    np.ndindex(lhs.shape[1:]), lhs, rhs)


# ---------------------------------------------------------------------
# Ricci decompositions (3.11)-(3.13) and corollaries
# ---------------------------------------------------------------------

def _dilation_terms(ctx):
    """The terms of the horizontal Ricci form (3.13) read off the base
    Ricci tensor and f = 1/lambda^2, as arrays over the points and
    horizontal pairs."""
    n, lam_sq = ctx.n, ctx.lam_sq
    lam4 = lam_sq ** 2
    h = slice(ctx.m - n, None)
    gram, hess, df = ctx.gram[:, h, h], ctx.hess_e[:, h, h], ctx.df_e[:, h]
    laplacian = np.trace(hess, axis1=1, axis2=2)
    return {
        "Ric_N/lam^2": ctx.base_ric_e / lam_sq[:, None, None],
        "-((n-2)/2) lam^2 Hess f(X,Y)": (-((n - 2) / 2.0)
                                         * lam_sq)[:, None, None] * hess,
        "-(lam^2/2) g(X,Y){lap_H f - n H'(f)}": (-(lam_sq / 2.0))[
            :, None, None] * gram * (laplacian - n * ctx.hp_f)[:, None, None],
        "(n lam^4/4) g(X,Y)|grad f|^2": (n * lam4 / 4.0)[:, None, None]
            * gram * ctx.grad_f_sq[:, None, None],
        "(lam^4/4)(n-2)(Xf)(Yf)": ((lam4 / 4.0) * (n - 2))[:, None, None]
            * _outer(df, df),
    }


def _ricci_terms(identity_id, ctx):
    """(lhs, terms) of a Ricci decomposition over its frame block."""
    m, n, nv = ctx.m, ctx.n, ctx.m - ctx.n
    v, h = slice(nv), slice(nv, None)
    if identity_id == "R3.11":
        a_hv = ctx.a_e[:, h, v]
        vdf = ctx.vdf_e[:, v]
        return ctx.ric_e[:, v, v], {
            "Ric_nu": ctx.fiber_ric_e,
            "-(m-n)g(T_UV,H)": -(m - n) * mat_vec(ctx.t_e[:, v, v],
                                                   ctx.h_e),
            "sum (nabla_U A)_Xj Xj . V": np.einsum(
                "...iaaj->...ij", ctx.da_e[:, v, h, h, v]),
            "sum g(A_Xj U, A_Xj V)": np.einsum("...aic,...ajc->...ij",
                                               a_hv, a_hv),
            "-sum (nabla_Xj T)_U Xj . V": -np.einsum(
                "...aiaj->...ij", ctx.dt_e[:, h, v, h, v]),
            "-(lam^4/2) n (Uf)(Vf)": (-(ctx.lam_sq ** 2 / 2.0) * n)[
                :, None, None] * _outer(vdf, vdf),
        }
    if identity_id == "R3.12":
        da = ctx.da_e[:, h, h, h, v]
        return ctx.ric_e[:, v, h], {
            "(m-n) g(nabla_U H, X)": (m - n) * ctx.dh_e[:, v, h],
            "-sum (nabla_Ui T)_U Ui . X": -np.einsum(
                "...jija->...ia", ctx.dt_e[:, v, v, v, h]),
            "sum (nabla_X A)_Xj Xj . U": np.einsum("...abbi->...ia", da),
            "-sum (nabla_Xj A)_X Xj . U": -np.einsum("...babi->...ia", da),
            "-sum g(T_U Xj, v[X,Xj])": -np.einsum(
                "...ibc,...abc->...ia", ctx.t_e[:, v, h], ctx.nu_e),
        }
    a_hv, t_vh, nu = ctx.a_e[:, h, v], ctx.t_e[:, v, h], ctx.nu_e
    dilation = _dilation_terms(ctx)
    return ctx.ric_e[:, h, h], {
        "sum (nabla_Ui A)_X Y . Ui": np.einsum(
            "...iabi->...ab", ctx.da_e[:, v, h, h, v]),
        "sum g(A_X Ui, A_Y Ui)": np.einsum("...aic,...bic->...ab",
                                           a_hv, a_hv),
        "-sum (nabla_X T)_Ui Y . Ui": -np.einsum(
            "...aibi->...ab", ctx.dt_e[:, h, v, h, v]),
        "-sum g(T_Ui X, T_Ui Y)": -np.einsum("...iac,...ibc->...ab",
                                             t_vh, t_vh),
        "lam^2 g(A_XY, grad_v f)": ctx.lam_sq[:, None, None]
            * mat_vec(ctx.a_e[:, h, h], ctx.vdf_e),
        "Ric_N/lam^2": dilation.pop("Ric_N/lam^2"),
        "(3/4) sum g(v[X,Xj], v[Xj,Y])": 0.75 * np.einsum(
            "...adc,...dbc->...ab", nu, nu),
        **dilation,
    }


def verify_ricci_decomposition(identity_id, ctx, tol=1e-6):
    hyps = [ctx.hyp_conformal]
    if identity_id == "R3.11":
        hyps.append(ctx.hyp_fiber_chart)
    lhs, terms = _ricci_terms(identity_id, ctx)
    nv = ctx.m - ctx.n
    label, index = {"R3.11": ("U{} V{}", _upper(nv)),
                    "R3.12": ("U{} X{}", np.ndindex(lhs.shape[1:])),
                    "R3.13": ("X{} Y{}", _upper(ctx.n))}[identity_id]
    return _records(identity_id, ctx, tol, hyps, label, index, lhs,
                    sum(terms.values()), list(terms.items()))


def verify_corollary(identity_id, ctx, tol=1e-6):
    """C3.1-C3.3 over the vertical pairs, the mixed pairs and the
    horizontal pairs of the frame, in that order, as far as each
    corollary states them."""
    n, nv, lam_sq = ctx.n, ctx.m - ctx.n, ctx.lam_sq
    v, h = slice(nv), slice(nv, None)
    ric, gram = ctx.ric_e, ctx.gram[:, h, h]
    if identity_id == "C3.1":
        hyps = [ctx.hyp_conformal, ctx.hyp_fibers_tg,
                ctx.hyp_horizontal_integrable, ctx.hyp_fiber_chart]
        vdf, dhp = ctx.vdf_e[:, v], ctx.dhp_e
        dilation = _dilation_terms(ctx)
        blocks = [
            (ctx.fiber_ric_e + n * dhp[:, v, v]
             + ((n * n / 4.0 - n / 2.0) * lam_sq ** 2)[:, None, None]
             * _outer(vdf, vdf)),
            (n * dhp[:, h, v] - gram @ dhp[:, h, v]).swapaxes(1, 2),
            (gram * ctx.div_hprime[:, None, None]
             + dilation.pop("Ric_N/lam^2")
             - (0.75 * lam_sq ** 2)[:, None, None] * gram
             * ctx.vgrad_f_sq[:, None, None]
             + sum(dilation.values()))]
    elif identity_id == "C3.2":
        hyps = [ctx.hyp_conformal, ctx.hyp_fibers_tg,
                ctx.hyp_horizontal_integrable, ctx.hyp_homothetic]
        blocks = [None, None,
                  (gram * ctx.div_hprime[:, None, None]
                   + ctx.base_ric_e / lam_sq[:, None, None]
                   - (0.25 * lam_sq ** 2)[:, None, None] * gram
                   * ctx.vgrad_f_sq[:, None, None]
                   + (n * lam_sq / 2.0)[:, None, None] * gram
                   * ctx.hp_f[:, None, None])]
    else:  # C3.3
        hyps = [ctx.hyp_conformal, ctx.hyp_map_tg, ctx.hyp_fiber_chart]
        blocks = [ctx.fiber_ric_e, np.zeros((len(ctx.points), nv, n)),
                  ctx.base_ric_e / lam_sq[:, None, None]]
    return RecordTable.point_major(ctx.point_lists, [
        _records(identity_id, ctx, tol, hyps, label, index,
                 ric[(slice(None),) + block], rhs)
        for (block, label, index), rhs in zip(
            (((v, v), "(U{},V{})", _upper(nv)),
             ((v, h), "(U{},X{})", np.ndindex(nv, n)),
             ((h, h), "(X{},Y{})", _upper(n))), blocks)
        if rhs is not None])


def verify_scalar_split(ctx, tol=1e-6):
    """s = s^{KerF_*} + s^N / lam^2 for a totally geodesic map."""
    hyps = [ctx.hyp_conformal, ctx.hyp_map_tg, ctx.hyp_fiber_chart]
    s_fiber = ctx.fiber_scalar_intrinsic
    s_base = ctx.base_scalar_curvature / ctx.lam_sq
    return _records("T3.4", ctx, tol, hyps, "", [()], ctx.scalar_curvature,
                    s_fiber + s_base,
                    (("s_fiber", s_fiber), ("s_base/lam^2", s_base)))


# ---------------------------------------------------------------------
# Lemma 2.1 and Lemma 2.2
# ---------------------------------------------------------------------

def verify_lemma_2_1(ctx, tol=1e-6):
    """L2.1 for every pair of lifts X_a, X_b of the base coordinate
    fields e_a, e_b: F_*(h nabla_{X_a} X_b) = nabla^N_{e_a} e_b
    + (lam^2/2){X_a(f) F_*X_b + X_b(f) F_*X_a - g(X_a, X_b) F_*(h grad f)},
    with nabla^N_{e_a} e_b = Gamma^N_ab."""
    lift, _, nabla = ctx.basic_fields
    lhs = np.einsum("...ik,...kab->...iab", ctx.jac @ ctx.ph, nabla)
    push = ctx.jac @ lift
    lift_t = lift.swapaxes(1, 2)
    xf = mat_vec(lift_t @ ctx.g, ctx.grad_f)
    gxy = lift_t @ ctx.g @ lift
    correction = (0.5 * ctx.lam_sq)[:, None, None, None] * (
        np.einsum("...a,...ib->...iab", xf, push)
        + np.einsum("...b,...ia->...iab", xf, push)
        - np.einsum("...ab,...i->...iab", gxy, mat_vec(ctx.jac,
                                                        ctx.hgrad_f)))
    rhs = ctx.base_curvature[0] + correction
    lhs_n, rhs_n, res = (sub.pair_norms(ctx.h_base, w)
                         for w in (lhs, rhs, lhs - rhs))
    return _records("L2.1", ctx, tol, [ctx.hyp_conformal], "",
                    np.ndindex(res.shape[1:]), lhs_n, rhs_n, residual=res,
                    scale=1.0 + np.maximum(lhs_n, rhs_n))


def verify_hessian_symmetry(ctx, tol=1e-9):
    """L2.2: the Hessian of f = 1/lambda^2 is symmetric, to within
    max(tol, 1e-9)."""
    worst = np.abs(ctx.hess_f - ctx.hess_f.swapaxes(1, 2)).max(axis=(1, 2))
    return _records("L2.2", ctx, max(tol, 1e-9), [], "", [()], worst,
                    np.zeros_like(worst), residual=worst,
                    scale=np.ones_like(worst))


# ---------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------

# every identity check id, in ``ALL_CHECK_IDS`` order, with its
# fn(ctx, tol) giving its ``RecordTable`` over the run's points
CHECKS = {
    "G2.12": _g212, "G2.13": _g213, "G2.14": _g214, "G2.15": _g215,
    "G2.16": _g216,
    **{cid: functools.partial(verify_A_formula, cid)
       for cid in ("P3.1", "E3.3")},
    **{cid: functools.partial(verify_lemma_3_1, cid.split(".")[-1])
       for cid in LEMMA31_CHECKS},
    **{cid: functools.partial(verify_ricci_decomposition, cid)
       for cid in RICCI_CHECKS},
    **{cid: functools.partial(verify_corollary, cid)
       for cid in COROLLARY_CHECKS},
    "T3.4": verify_scalar_split, "L2.1": verify_lemma_2_1,
    "L2.2": verify_hessian_symmetry,
}


def run_check(check_id, setup, points, tol=1e-6, ctx=None):
    """Run one check id at every point of ``points``; returns its records
    as a ``RecordTable`` over the points, point by point.  ``ctx`` is the
    points' ``IdentityContext`` when the caller holds it."""
    if check_id not in CHECKS:
        raise ValueError(f"unknown check id {check_id!r}")
    return CHECKS[check_id](ctx or IdentityContext(setup, points), tol)
