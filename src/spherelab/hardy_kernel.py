"""The Hardy constraint kernel: the 13 product-form residuals of the seven tilt
angles (lrmodel.ANGLE_NAMES order) and, from the same cos/sin values, their
exact Jacobian and its Gram products, over angle stacks; lrmodel solves on it.
Each residual and derivative is a signed sum of products of cos/sin of the
angles and of seven fixed angle sums: a term table gathers the factors and
np.add.reduceat sums each run, so a row's bits do not depend on the stack."""

import math

import numpy as np


def theta_terms(theta) -> np.ndarray:
    """The constant factor columns of the term table, (..., 9) for a theta of
    any shape: 1, -1, k, -k, 0, sin/s, -sin cos^2/s, -cos^3/s and -cos/s, with
    k = cos(2 theta) as 1 - 2 sin^2 and s = sqrt(1 + cos^2).  Each distinct
    theta is worked in Python floats (numpy's vectorized power can differ from
    libm's pow in the last bit), so a per-row theta gives the scalar's bits."""
    if isinstance(theta, float):
        return np.array(_scalar_theta_terms(theta))
    theta = np.asarray(theta, dtype=float)
    values, where = np.unique(theta, return_inverse=True)
    table = np.array([_scalar_theta_terms(t) for t in values.tolist()])
    return table[where].reshape(theta.shape + (9,))


def _scalar_theta_terms(theta: float) -> tuple:
    ct, st = math.cos(theta), math.sin(theta)
    s, k = math.sqrt(1.0 + ct * ct), 1.0 - 2.0 * st * st
    return 1.0, -1.0, k, -k, 0.0, st / s, -(st * ct * ct / s), -(ct**3 / s), -(ct / s)


# The 14 trig arguments x[_ARG_IDX[0]] + _ARG_SIGN * x[_ARG_IDX[1]]: the seven
# angles (x + 0 x is x), then al+be, ro+nu, ga+de, ga-nu, ro-de, al+et, et-be.
_ARG_IDX = np.array([[0, 1, 2, 3, 4, 5, 6, 0, 5, 2, 2, 5, 0, 4],
                     [0, 1, 2, 3, 4, 5, 6, 1, 6, 3, 6, 3, 4, 1]])
_ARG_SIGN = np.array([0.0] * 7 + [1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0])


def _tables():
    """Terms: each residual, each nonzero d r_i / d x_j (entry i * 7 + j), a
    zero, as runs of terms (c, f, g) = t[c] * t[f] * t[g] over the columns t
    of cos(args) (c_), sin(args) (s_) and theta_terms, c the signed factor; a
    derivative term differentiates one trig factor (cos -> -sin, sin -> cos,
    times the sign of x_j in it).  Gram: runs of output products giving the
    upper triangle of [J | r]^T [J | r], and each J^T J entry's index in it."""
    args = "al be ga de et ro nu ab rn gd gn rd ae eb".split()
    column = {f"{cs}_{a}": 14 * n + i for n, cs in enumerate("cs") for i, a in enumerate(args)}
    column.update(zip("one minus k mk zero st stcc c3 ct".split(), range(28, 37)))
    one, minus, k, mk, zero = range(28, 33)

    def flat(runs):
        return (np.array([term for run in runs for term in run]).T.copy(),
                np.cumsum([0] + [len(run) for run in runs[:-1]]))

    spec = [[tuple(column[name] for name in term.split()) for term in line.split(",")]
            for line in """
        one c_ga c_be, mk s_ga s_be
        one c_al c_de, mk s_al s_de
        one c_ab one, st one one
        one c_rn one, one c_gd one, st one one
        one c_gd one, stcc one one
        one c_ro s_et, minus c_nu c_et, mk s_ro c_et, k s_nu s_et
        one c_ga s_et, minus c_de c_et, mk s_de s_et, k s_ga c_et
        one c_al c_nu, minus c_ro c_be, mk s_ro s_be, k s_al s_nu
        minus c_ro s_et, one c_nu c_et, k s_ro c_et, mk s_nu s_et
        one c_gn one, c3 one one
        one c_rd one, c3 one one
        one s_ae one, ct one one
        one c_eb one, ct one one""".strip().splitlines()]
    sign = np.zeros((14, 7))  # of x_j in each argument
    sign[range(14), _ARG_IDX[0]] = 1.0
    sign[range(7, 14), _ARG_IDX[1, 7:]] = _ARG_SIGN[7:]
    negated = {one: minus, minus: one, k: mk, mk: k}

    runs, entries = list(spec), []
    for i, residual in enumerate(spec):
        for j in range(7):
            run = []
            for c, *factors in residual:
                for pos, f in enumerate(factors):
                    d = sign[f % 14, j] if f < 28 else 0.0
                    if d:
                        swapped = list(factors)
                        swapped[pos] = f + 14 if f < 14 else f - 14
                        run.append((c if d * (-1 if f < 14 else 1) > 0 else negated[c], *swapped))
            if run:
                runs.append(run)
                entries.append(i * 7 + j)
    runs.append([(zero, one, one)])

    g = {(i, 7): i for i in range(13)}  # the output holding G[i, a]
    g.update({divmod(e, 7): 13 + n for n, e in enumerate(entries)})
    outputs = [(a, b) for a in range(7) for b in range(a, 7)] + [(a, 7) for a in range(8)]
    gram = [[(g[i, a], g[i, b]) for i in range(13) if (i, a) in g and (i, b) in g]
            or [(len(runs) - 1,) * 2] for a, b in outputs]
    square = [outputs.index((min(a, b), max(a, b))) for a in range(7) for b in range(7)]
    return (*flat(runs), np.array(entries), *flat(gram), np.array(square))


_FACTORS, _STARTS, _JAC_ENTRIES, _GRAM_PAIRS, _GRAM_STARTS, GRAM_SQUARE = _tables()


def terms(x: np.ndarray, consts: np.ndarray, jacobian: bool) -> np.ndarray:
    """The residuals of a (..., 7) stack with its (..., 9) theta_terms rows,
    (..., 13); with jacobian, then J's nonzero entries (_JAC_ENTRIES) and a
    zero, (..., 47): one set of cos/sin values, one gather, one reduceat."""
    pairs = x.take(_ARG_IDX, axis=-1)
    args = pairs[..., 0, :] + _ARG_SIGN * pairs[..., 1, :]
    t = np.concatenate([np.cos(args), np.sin(args), consts], axis=-1)
    f = t.take(_FACTORS if jacobian else _FACTORS[:, :_STARTS[13]], axis=-1)
    return np.add.reduceat(f[..., 0, :] * f[..., 1, :] * f[..., 2, :],
                           _STARTS if jacobian else _STARTS[:13], axis=-1)


def residuals(x, theta) -> np.ndarray:
    """(..., 13) residuals of a (..., 7) angle stack; theta is a scalar or one
    value per row, broadcast against the stack's leading shape."""
    x = np.asarray(x, dtype=float)
    return terms(x, np.broadcast_to(theta_terms(theta), x.shape[:-1] + (9,)), False)


def jacobian(x: np.ndarray, theta) -> np.ndarray:
    """(S, 13, 7) Jacobians of the residuals at an (S, 7) stack; theta is a
    scalar or one value per row."""
    jac, consts = np.zeros((len(x), 91)), np.broadcast_to(theta_terms(theta), (len(x), 9))
    jac[:, _JAC_ENTRIES] = terms(x, consts, True)[:, 13:-1]
    return jac.reshape(-1, 13, 7)


_BLOCK_ROWS = 64  # rows per terms call, so a 608-row scan pass keeps the peak memory


def gram_triangle(x: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """The upper triangle of [J | r]^T [J | r] at an (S, 7) stack with its
    (S, 9) theta_terms rows, (S, 36): J^T J by rows (28; GRAM_SQUARE gathers
    the 7x7), J^T r (7), then r^T r.  Per 64-row block, terms gives r and J's
    nonzero entries, and a product-and-reduceat over the Gram table the rest."""
    gram = np.empty((len(x), 36))
    for lo in range(0, len(x), _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        g = terms(x[rows], consts[rows], True).take(_GRAM_PAIRS, axis=1)
        gram[rows] = np.add.reduceat(g[:, 0] * g[:, 1], _GRAM_STARTS, axis=1)
    return gram
