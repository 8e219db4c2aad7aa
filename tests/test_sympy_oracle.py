"""SymPy oracle for the per-point geometry of the catalog examples.

Each example's metrics and map are turned into SymPy expressions, and
the Christoffel symbols, the Ricci tensor, the scalar curvature, the
squared dilation, the vertical projector, the O'Neill tensors T and A
and the fiber mean curvature H are derived from them symbolically, each
from its definition:

- T_E F = h nabla_{vE} vF + v nabla_{vE} hF and
  A_E F = h nabla_{hE} vF + v nabla_{hE} hF over the coordinate fields;
- lambda^2 = h(F_* X, F_* X) for a unit horizontal X;
- H = sum_i T_{U_i} U_i / (m - n) over an orthonormal vertical frame.

The expressions are then evaluated at two or three points of each
example and compared with the run's ``IdentityContext`` arrays at the
point.  This
path shares no jet, Taylor or contraction code with ``confsub``; it
reads only the parsed manifest expressions.
"""

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from confsub import catalog  # noqa: E402
from confsub import expr  # noqa: E402
from confsub.geometry import Point  # noqa: E402
from conftest import context, warped_4to2  # noqa: E402

_BINARY = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
           "*": lambda a, b: a * b, "/": lambda a, b: a / b}


def to_sympy(node, symbols):
    """The SymPy form of a parsed expression over ``symbols`` (by name)."""
    if isinstance(node, expr.Const):
        return sp.Rational(repr(node.value))
    if isinstance(node, expr.Coord):
        return symbols[node.name]
    if isinstance(node, expr.Neg):
        return -to_sympy(node.arg, symbols)
    if isinstance(node, expr.BinOp):
        return _BINARY[node.op](to_sympy(node.left, symbols),
                                to_sympy(node.right, symbols))
    if isinstance(node, expr.Pow):
        exponent = sp.Rational(node.exponent.numerator,
                               node.exponent.denominator)
        return to_sympy(node.base, symbols) ** exponent
    if isinstance(node, expr.Call):
        return getattr(sp, node.func)(to_sympy(node.arg, symbols))
    raise TypeError(f"not an expression node: {node!r}")


def _matrix(chart, symbols):
    return sp.Matrix([[to_sympy(e, symbols) for e in row]
                      for row in chart.metric])


def _gram_schmidt(g, vectors):
    """Orthonormalize column vectors against the metric g."""
    out = []
    for v in vectors:
        for u in out:
            v = v - (u.T * g * v)[0] * u
        out.append(v / sp.sqrt((v.T * g * v)[0]))
    return out


class SymbolicSubmersion:
    """The oracle quantities of a ``SubmersionSetup`` as SymPy
    expressions in its total coordinates."""

    def __init__(self, setup):
        xs = sp.symbols(setup.total.coord_names, real=True)
        ys = sp.symbols(setup.base.coord_names, real=True)
        self.xs = xs
        m, n = setup.m, setup.n
        env = dict(zip(setup.total.coord_names, xs))
        g = _matrix(setup.total, env)
        ginv = g.inv()
        fmap = [to_sympy(c, env) for c in setup.map_components]
        h = _matrix(setup.base, dict(zip(setup.base.coord_names, ys)))
        h = h.subs(dict(zip(ys, fmap)), simultaneous=True)
        jac = sp.Matrix(fmap).jacobian(xs)

        d = sp.diff
        gamma = [[[sum(ginv[k, l] * (d(g[j, l], xs[i]) + d(g[i, l], xs[j])
                                     - d(g[i, j], xs[l]))
                       for l in range(m)) / 2
                   for j in range(m)] for i in range(m)] for k in range(m)]
        # R^l_kij = component l of R(e_i, e_j) e_k and
        # Ric(e_j, e_k) = sum_i R^i_kij
        def riem(l, k, i, j):
            return (d(gamma[l][j][k], xs[i]) - d(gamma[l][i][k], xs[j])
                    + sum(gamma[l][i][t] * gamma[t][j][k]
                          - gamma[l][j][t] * gamma[t][i][k]
                          for t in range(m)))
        ric = sp.Matrix(m, m, lambda j, k: sum(riem(i, k, i, j)
                                               for i in range(m)))
        self.gamma, self.ric = gamma, ric
        self.scalar = sum(ginv[j, k] * ric[j, k]
                          for j in range(m) for k in range(m))

        lift = ginv * jac.T * (jac * ginv * jac.T).inv()
        ph = lift * jac
        pv = sp.eye(m) - ph
        self.pv = pv
        unit_x = _gram_schmidt(g, [lift[:, 0]])[0]
        push = jac * unit_x
        self.lam_sq = (push.T * h * push)[0]

        def nabla(x, y):
            """nabla_X Y for fields given by component columns."""
            return sp.Matrix([
                sum(x[l] * d(y[k], xs[l]) for l in range(m))
                + sum(gamma[k][l][j] * x[l] * y[j]
                      for l in range(m) for j in range(m))
                for k in range(m)])

        def fundamental(proj):
            # proj = P_v for T, P_h for A, applied to the first slot
            return [[ph * nabla(proj[:, a], pv[:, b])
                     + pv * nabla(proj[:, a], ph[:, b])
                     for b in range(m)] for a in range(m)]
        self.t, self.a = fundamental(pv), fundamental(ph)

        kernel = jac.nullspace()
        assert len(kernel) == m - n
        self.h = sp.zeros(m, 1)
        for u in _gram_schmidt(g, kernel):
            for a in range(m):
                for b in range(m):
                    self.h += u[a] * u[b] * self.t[a][b] / (m - n)

    def at(self, coords):
        """Every oracle quantity as floats at the point ``coords``."""
        subs = dict(zip(self.xs, coords))

        def value(e):
            return float(sp.sympify(e).subs(subs).evalf(30))

        def array(nested):
            if isinstance(nested, sp.MatrixBase):
                return np.array([[value(e) for e in row]
                                 for row in nested.tolist()])
            if isinstance(nested, (list, tuple)):
                return np.array([array(x) for x in nested])
            return value(nested)

        m = len(self.xs)
        # T[a][b] is the column of T_{e_a} e_b; the context indexes it
        # [k, a, b]
        t = array(self.t).reshape(m, m, m).transpose(2, 0, 1)
        a = array(self.a).reshape(m, m, m).transpose(2, 0, 1)
        return {"gamma": array(self.gamma), "ric_matrix": array(self.ric),
                "scalar_curvature": value(self.scalar),
                "lam_sq": value(self.lam_sq), "pv": array(self.pv),
                "t_tensor": t, "a_tensor": a,
                "h_vec": array(self.h).reshape(m)}


def _cases():
    cases = []
    for eid in catalog.EXAMPLE_IDS:
        job = catalog.load_job(eid)
        cases.append((eid, job.setup, job.points[:3]))
    # two-dimensional fibers, which the catalog does not have
    cases.append(("warped-4to2", warped_4to2(),
                  [Point((0.2, -0.4, 0.5, 1.1)),
                   Point((-0.7, 0.3, 2.0, -0.6))]))
    return cases


CASES = _cases()


@pytest.mark.parametrize("name,setup,points", CASES,
                         ids=[case[0] for case in CASES])
def test_context_matches_sympy_oracle(name, setup, points):
    oracle = SymbolicSubmersion(setup)
    ctx = context(setup, points)
    for i, p in enumerate(points):
        for key, ref in oracle.at(p.coords).items():
            got = np.asarray(getattr(ctx, key)[i], dtype=float)
            ref = np.asarray(ref, dtype=float)
            assert got.shape == ref.shape, (name, key)
            bound = 1e-10 * (1.0 + np.abs(ref))
            assert np.all(np.abs(got - ref) <= bound), (name, p.coords, key,
                                                        got, ref)
