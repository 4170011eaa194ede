"""Self-contained primal-dual interior-point solver.

Assembled programs arrive as linear matrix inequalities in the free moments:
minimize f0 + c.u subject to F0 + sum_i u_i F_i being PSD blockwise (scalar
rows in the linear-programming case).  Internally the solver works on the
equivalent conic pair

    (P)  min <C, X>   s.t.  <A_i, X> = b_i,   X PSD
    (D)  max b.y      s.t.  sum_i y_i A_i + S = C,   S PSD

with A_i = -F_i, C = F0, b = -c, so the (D) variable y is the moment vector
and the (P) variable X collects the Gram multiplier blocks of the dual
representation (the bound certificate), found by a Mehrotra
predictor-corrector.

``solve`` is the one entry point for both program kinds, and ``_cones``
the one builder: it places the moments once and makes each PSD block or LP
constraint family one cone object, labelled with its multipliers
(``solve_sdp`` and ``solve_lp`` are aliases, kept for the benchmark and the
acceptance tests, which import those names).  Each cone owns its data and
its math; the loop calls them without knowing which kind it holds.  A
``_PsdCone`` is a k x k SDP block, a sparse (M, k*k) matrix read off the
symbolic localizing matrix: Nesterov-Todd scaling, and a Schur part built
from its nonzeros (Fujisawa, Kojima and Nakata 1997, formula F1), M_b*k^3
per iteration instead of M^2*k^2 for a block that touches M_b moments.  A
``_RowCone`` is one family of nonnegative LP rows, a sparse (M, R_b) matrix:
x/s scaling, and a Schur part that is a symmetric rank-R_b update of the
dense (M_b, R_b) rows it reads.  Every LP row is a product of g's alone or
of h's alone, so each family reads only the moments of its own side (plus
the shared Y-only ones).  Either kind fills only the rows and columns of
the M_b moments it touches.  The rest is dense float64 linear algebra;
exactness is recovered downstream by certificate verification.  There is no
randomized state, so repeated solves of one program are bit-identical.
Infeasibility detection is heuristic: a presolve catches constant-row
contradictions, divergence of the certificate value with small residuals is
reported as infeasible, and iterates that overflow end in numerical failure.

numpy and scipy wheels each bundle their own OpenBLAS, with one thread pool
each.  While an IPM runs, both pools are put on the calling thread: on a
2-vCPU machine a second BLAS thread nearly doubled the CPU time of the
dense ladder and bought no wall time, once the Schur kernels stopped doing
work that it had been hiding (one GEMM per PSD block, SYRK for LP rows,
step lengths from the scaling already in hand).  That was measured on 2
vCPUs only; wall time on rungs larger than the ladders' and on machines
with more cores, where big PSD products lose their other threads, is
unverified.  Each library's previous
thread count is restored when the last running solve ends, so the caller
sees the same counts before and after.  The count is process-wide in
OpenBLAS, so BLAS calls made by other threads during a solve also run on
one thread.  Where the symbol is missing (another BLAS), nothing is
changed.
"""

from __future__ import annotations

import ctypes
import importlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.linalg.blas import dsyrk
from scipy.sparse import csr_matrix

from .moments import MomentVector
from .relax import ConicProgram, LinearProgram

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
MAX_ITERATIONS = "max-iterations"
NUMERICAL_FAILURE = "numerical-failure"

_STEP_FRACTION = 0.98
_DIVERGENCE = 1e10


@dataclass
class Residuals:
    primal: float
    dual: float
    gap: float


@dataclass
class SolveReport:
    """Outcome of one solve.

    ``primal_objective`` is the relaxation bound (the minimized moment
    pairing); ``dual_objective`` is the certificate value lambda.  On optimal
    status the two agree up to the gap tolerance.  ``dual_blocks`` pairs each
    block label with its Gram multiplier matrix (SDP) or each row label with
    its nonnegative multiplier (LP).
    """

    status: str
    primal_objective: float
    dual_objective: float
    moments: MomentVector
    dual_blocks: list
    iterations: int
    residuals: Residuals


class _Cone:
    """One block of the conic pair: its constraint data and, in a subclass,
    the interior-point math of its kind.

    ``A`` is sparse with no explicit zeros, one row per free moment, and
    ``moments`` lists the rows it touches: the block's part of the Schur
    complement has a row and column for those alone.  ``scale(X, S)`` fixes
    the scaling point that ``schur``, ``congruence``, ``corrector`` and
    ``max_steps`` then read.
    """

    def __init__(self, A: csr_matrix, C: np.ndarray):
        self.A = A
        self.C = C
        self.size = C.shape[0]
        self.moments = np.flatnonzero(np.diff(A.indptr))

    def apply(self, X: np.ndarray) -> np.ndarray:
        return self.A @ X.ravel()

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        return (self.A.T @ y).reshape(self.C.shape)


class _PsdCone(_Cone):
    """A k x k PSD block; column p*k+q of ``A`` holds entry (p, q) of every
    A_i, both triangles stored.

    Nesterov-Todd scaling: R satisfies R^-1 X R^-T = R^T S R = diag(lam),
    W = R R^T, and the scaled complementarity target is diagonal, which
    makes the Mehrotra correction a Lyapunov-style division by lam_i + lam_j.

    Schur part H_ij = <A_i, W A_j W>: the buffer Y[p, t, j] = (A_j W)[p, t]
    comes from the block's nonzeros at nnz*k cost; its zero pattern never
    changes, so it is rewritten in place.  One (k, k) by (k, k*M_b) product
    W Y then gives every W A_j W, in the (k*k, M_b) layout the sparse A
    contracts directly, for M_b*k^3 + nnz*M_b in all.
    """

    def __init__(self, A: csr_matrix, C: np.ndarray):
        super().__init__(A, C)
        k, m = self.size, self.moments.size
        self.A_b = A[self.moments]
        coo = self.A_b.tocoo()
        p, q = np.divmod(coo.col, k)
        # One row per nonzero row p of some A_j: that row, over q.  Its
        # product with W is Y[p, :, j].
        cols, slot = np.unique(p * m + coo.row, return_inverse=True)
        self.p_of, self.j_of = np.divmod(cols, m)
        self.rows = csr_matrix((coo.data, (slot, q)), shape=(cols.size, k))
        self.Y = np.zeros((k, k, m))

    def unit(self) -> np.ndarray:
        return np.eye(self.size)

    @staticmethod
    def sym(mat: np.ndarray) -> np.ndarray:
        return 0.5 * (mat + mat.T)

    def constant_infeasible(self, tiny: float) -> bool:
        # A block that reads no moment must already be PSD.
        return self.A.nnz == 0 and float(np.linalg.eigvalsh(self.sym(self.C))[0]) < -tiny

    def scale(self, X: np.ndarray, S: np.ndarray) -> None:
        Lx = np.linalg.cholesky(X)
        _, lam, Vt = np.linalg.svd(np.linalg.cholesky(S).T @ Lx)
        if np.min(lam) <= 0:
            raise np.linalg.LinAlgError("lost positive definiteness")
        self.lam = lam
        self.R = Lx @ (Vt.T / np.sqrt(lam))
        eye = np.eye(self.size)
        self.Rinv = (Vt * np.sqrt(lam)[:, None]) @ solve_triangular(Lx, eye, lower=True)
        self.W = self.R @ self.R.T

    def schur(self) -> np.ndarray:
        k, _, m = self.Y.shape
        self.Y[self.p_of, :, self.j_of] = self.rows @ self.W
        WAW = self.W @ self.Y.reshape(k, k * m)  # [r, t*m + j] = (W A_j W)[r, t]
        return self.A_b @ WAW.reshape(k * k, m)

    def congruence(self, mat: np.ndarray) -> np.ndarray:
        return self.W @ mat @ self.W

    def corrector(self, sigma_mu: float, dX: np.ndarray, dS: np.ndarray) -> np.ndarray:
        """Right-hand side of the centering-corrector complementarity
        equation, mapped back to the unscaled space."""
        dXt = self.Rinv @ dX @ self.Rinv.T
        dSt = self.R.T @ dS @ self.R
        rhs = -0.5 * (dXt @ dSt + dSt @ dXt)
        idx = np.diag_indices(rhs.shape[0])
        rhs[idx] += sigma_mu - self.lam**2
        scaled = 2.0 * rhs / (self.lam[:, None] + self.lam[None, :])
        return self.R @ scaled @ self.R.T

    def max_steps(self, dX: np.ndarray, dS: np.ndarray) -> tuple[float, float]:
        # Scaled by R, X and S both become diag(lam).
        return self._step(self.Rinv @ dX @ self.Rinv.T), self._step(self.R.T @ dS @ self.R)

    def _step(self, D: np.ndarray) -> float:
        # Largest a with diag(lam) + a D PSD, inf when none bounds it.
        d = 1.0 / np.sqrt(self.lam)
        lam_min = float(np.linalg.eigvalsh(self.sym(d[:, None] * D * d))[0])
        return np.inf if lam_min >= -1e-14 else -1.0 / lam_min


class _RowCone(_Cone):
    """Elementwise-nonnegative rows, column r of ``A`` holding row r.  The
    scaling is w = x/s, and the Schur part H_ij = sum_r A_ir w_r A_jr is a
    symmetric rank-R_b update (BLAS SYRK) of (A_b * sqrt(w)), which computes
    one triangle: half the flops of the full (M_b, R_b) by (R_b, M_b)
    product."""

    def __init__(self, A: csr_matrix, C: np.ndarray):
        super().__init__(A, C)
        self.A_b = A[self.moments].toarray()

    def unit(self) -> np.ndarray:
        return np.ones(self.size)

    @staticmethod
    def sym(vec: np.ndarray) -> np.ndarray:
        return vec

    def constant_infeasible(self, tiny: float) -> bool:
        # Rows that read no moment must already be nonnegative.
        dead = np.bincount(self.A.indices, minlength=self.size) == 0
        return bool(np.any(self.C[dead] < -tiny))

    def scale(self, x: np.ndarray, s: np.ndarray) -> None:
        self.x, self.s = x, s
        self.w = x / s
        self.Sinv = 1.0 / s

    def schur(self) -> np.ndarray:
        # The transpose of the C-ordered product is the Fortran array SYRK
        # reads without a copy.  It fills the lower triangle; the loop adds
        # full parts, so the upper one is mirrored in.
        H = dsyrk(1.0, (self.A_b * np.sqrt(self.w)).T, lower=1, trans=1)
        H += np.tril(H, -1).T
        return H

    def congruence(self, vec: np.ndarray) -> np.ndarray:
        return self.w * vec

    def corrector(self, sigma_mu: float, dx: np.ndarray, ds: np.ndarray) -> np.ndarray:
        return sigma_mu * self.Sinv - self.x - dx * ds * self.Sinv

    def max_steps(self, dx: np.ndarray, ds: np.ndarray) -> tuple[float, float]:
        return self._step(self.x, dx), self._step(self.s, ds)

    @staticmethod
    def _step(v: np.ndarray, dv: np.ndarray) -> float:
        neg = dv < 0
        return float(np.min(v[neg] / -dv[neg])) if np.any(neg) else np.inf


@dataclass
class _RawResult:
    status: str
    X: list
    y: np.ndarray
    iterations: int
    rel_p: float
    rel_d: float
    pobj: float


def _max_steps(cones: list[_Cone], dX, dS) -> tuple[float, float]:
    """Largest primal and dual steps along (dX, dS) that stay in every cone,
    inf when no cone bounds them."""
    ap = ad = np.inf
    for c, dXc, dSc in zip(cones, dX, dS):
        p, d = c.max_steps(dXc, dSc)
        ap, ad = min(ap, p), min(ad, d)
    return ap, ad


def _presolve_unbounded(cones: list[_Cone], b: np.ndarray) -> bool:
    # A moment with nonzero objective weight that no block touches is a free
    # ray (e.g. odd moments under purely even constraint products).
    touched = np.zeros(b.size, dtype=bool)
    for cone in cones:
        touched[cone.moments] = True
    return bool(np.any(~touched & (b != 0)))


def _address(fn) -> int:
    return ctypes.cast(fn, ctypes.c_void_p).value


@cache
def _thread_setters() -> tuple:
    """OpenBLAS's ``openblas_set_num_threads_local`` (it sets the count and
    returns the previous one) in the libraries behind scipy's LAPACK and
    numpy's linalg, once per distinct function: empty where neither exports
    it (another BLAS) or neither library can be opened."""
    setters = {}
    for name in ("scipy.linalg._flapack", "numpy.linalg._umath_linalg"):
        try:
            lib = ctypes.CDLL(importlib.import_module(name).__file__)
        except (ImportError, OSError):
            continue
        setter = getattr(lib, "openblas_set_num_threads_local", None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = ctypes.c_int
            setters.setdefault(_address(setter), setter)
    return tuple(setters.values())


# Despite its name, the setter changes the count of the whole process on
# pthreads builds of OpenBLAS, so overlapping solves in several threads
# share one pin instead of each restoring what another one set.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: list[tuple] = []


@contextmanager
def _blas_on_one_thread():
    """Run every OpenBLAS pool on one thread for the body; concurrent solves
    share one pin, and the last to leave restores the caller's counts."""
    global _pin_depth, _pin_saved
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = [(setter, setter(1)) for setter in _thread_setters()]
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                for setter, count in _pin_saved:
                    setter(count)


def _ipm_loop(cones: list[_Cone], b: np.ndarray, tol: float, max_iter: int) -> _RawResult:
    M = b.size
    nu = sum(c.size for c in cones)
    norm_b = float(np.linalg.norm(b))
    norm_C = float(np.sqrt(sum(np.sum(c.C**2) for c in cones)))
    data_norm = max(
        [norm_b] + [float(np.max(np.abs(c.C), initial=0.0)) for c in cones]
        + [float(np.max(np.abs(c.A.data), initial=0.0)) for c in cones]
    )
    init_scale = 1.0 + data_norm

    def idle(status: str) -> _RawResult:
        # No iteration runs: zero multipliers.
        X = [np.zeros_like(c.C) for c in cones]
        rel = 0.0 if status == OPTIMAL else np.inf
        return _RawResult(status, X, np.zeros(M), 0, rel, rel, 0.0)

    # Constant constraints must already be consistent; catches doctored
    # contradictions exactly.
    if any(c.constant_infeasible(1e-12 * init_scale) for c in cones):
        return idle(INFEASIBLE)
    if _presolve_unbounded(cones, b):
        return idle(UNBOUNDED)
    if M == 0:
        # No free moments: every block is constant, and the presolve has
        # already found each one PSD.
        return idle(OPTIMAL)

    X = [init_scale * c.unit() for c in cones]
    S = [init_scale * c.unit() for c in cones]
    y = np.zeros(M)

    status = MAX_ITERATIONS
    iterations = 0
    rel_p = rel_d = np.inf
    pobj = 0.0
    stalls = 0

    for it in range(max_iter + 1):
        rp = b - sum(c.apply(Xc) for c, Xc in zip(cones, X))
        Rd = [c.C - Sc - c.apply_adjoint(y) for c, Sc in zip(cones, S)]
        gap_xs = sum(float(np.vdot(Xc, Sc)) for Xc, Sc in zip(X, S))
        mu = gap_xs / nu
        pobj = sum(float(np.vdot(c.C, Xc)) for c, Xc in zip(cones, X))
        dobj = float(b @ y)
        rel_p = float(np.linalg.norm(rp)) / (1.0 + norm_b)
        rel_d = float(np.sqrt(sum(np.sum(R * R) for R in Rd))) / (1.0 + norm_C)
        # <X,S> alone can be tiny while the objectives still disagree (a
        # feasible set with no interior), so the objective gap counts too.
        rel_g = max(gap_xs, abs(pobj - dobj)) / (1.0 + abs(pobj) + abs(dobj))

        if max(rel_p, rel_d, rel_g) <= tol:
            status = OPTIMAL
            break
        if pobj < -_DIVERGENCE * init_scale and rel_p < 1e-6:
            status = INFEASIBLE  # certificate value diverges upward
            break
        if dobj > _DIVERGENCE * init_scale and rel_d < 1e-6:
            status = UNBOUNDED
            break
        if it == max_iter:
            break

        try:
            schur = np.zeros((M, M))
            for c, Xc, Sc in zip(cones, X, S):
                c.scale(Xc, Sc)
                if c.moments.size == M:
                    schur += c.schur()
                elif c.moments.size:  # a cone that reads no moment has none
                    schur[np.ix_(c.moments, c.moments)] += c.schur()
            schur += schur.T
            schur *= 0.5
            if not np.isfinite(schur).all():
                raise np.linalg.LinAlgError("non-finite Schur complement")
            jitter = 0.0
            base = 1e-14 * (1.0 + float(np.trace(schur)) / M)
            for attempt in range(4):
                try:
                    shifted = schur + jitter * np.eye(M) if jitter > 0 else schur
                    fac = cho_factor(shifted, lower=True, check_finite=False)
                    break
                except np.linalg.LinAlgError:
                    jitter = base * (100.0**attempt + 1.0)
            else:
                raise np.linalg.LinAlgError("Schur complement not positive definite")

            def schur_solve(rhs):
                # Diverging iterates overflow here first (infeasible input).
                if not np.isfinite(rhs).all():
                    raise np.linalg.LinAlgError("non-finite Newton right-hand side")
                return cho_solve(fac, rhs, check_finite=False)

            def newton(Rc):
                rhs = rp.copy()
                for c, R, Rcc in zip(cones, Rd, Rc):
                    rhs += c.apply(c.congruence(R)) - c.apply(Rcc)
                dy = schur_solve(rhs)
                # Refine against the unregularized system: recovers accuracy
                # lost to jitter and to ill-conditioning near optimality.
                for _ in range(2):
                    dy = dy + schur_solve(rhs - schur @ dy)
                dS = [R - c.apply_adjoint(dy) for c, R in zip(cones, Rd)]
                dX = [c.sym(Rcc - c.congruence(dSc)) for c, Rcc, dSc in zip(cones, Rc, dS)]
                if not all(np.isfinite(d).all() for d in [dy, *dX, *dS]):
                    raise np.linalg.LinAlgError("non-finite Newton direction")
                return dy, dX, dS

            # Predictor: pure Newton step toward complementarity zero.
            Rc_aff = [-Xc for Xc in X]
            dy_a, dX_a, dS_a = newton(Rc_aff)
            ap, ad = (min(1.0, a) for a in _max_steps(cones, dX_a, dS_a))
            mu_aff = max(
                0.0,
                sum(
                    float(np.vdot(Xc + ap * dXc, Sc + ad * dSc))
                    for Xc, Sc, dXc, dSc in zip(X, S, dX_a, dS_a)
                )
                / nu,
            )
            sigma = min(0.999, max(1e-10, (mu_aff / mu) ** 3)) if mu > 0 else 0.1

            # Corrector with the second-order complementarity term.
            dy, dX, dS = newton(
                [c.corrector(sigma * mu, dXc, dSc) for c, dXc, dSc in zip(cones, dX_a, dS_a)]
            )
        except np.linalg.LinAlgError:
            status = NUMERICAL_FAILURE
            break

        ap, ad = (min(1.0, _STEP_FRACTION * a) for a in _max_steps(cones, dX, dS))

        if max(ap, ad) < 1e-10:
            stalls += 1
            if stalls >= 3:
                status = NUMERICAL_FAILURE
                break
        else:
            stalls = 0

        X = [c.sym(Xc + ap * dXc) for c, Xc, dXc in zip(cones, X, dX)]
        y = y + ad * dy
        S = [c.sym(Sc + ad * dSc) for c, Sc, dSc in zip(cones, S, dS)]
        iterations = it + 1

    return _RawResult(status, X, y, iterations, rel_p, rel_d, pobj)


def _cones(program: ConicProgram | LinearProgram) -> tuple[list, dict]:
    """The program's cones, each with the labels of its multipliers, and the
    position of every free moment.

    A PSD block gives one ``_PsdCone`` labelled by its ``BlockLabel``; the LP
    rows give one ``_RowCone`` per constraint family, in order of first
    appearance, labelled by the positions in ``program.rows`` of its rows.
    Only the entry loops read the program kind: entry (i, j) of a k x k block
    fills slots i*k+j and j*k+i, row r of a family fills slot r.
    """
    zero = program.layout.zero_exponent
    if program.variable_index[0] != zero:
        raise ValueError("variable index must start with the unit moment")
    pos = {e: i - 1 for i, e in enumerate(program.variable_index) if i > 0}
    # Assembly shares one Fraction per distinct coefficient, so each object
    # is converted once; the program keeps every keyed object alive meanwhile.
    floats: dict[int, float] = {}
    parts = []
    if isinstance(program, LinearProgram):
        families: dict[str, list[int]] = {}
        for i, ((family, _, _), _) in enumerate(program.rows):
            families.setdefault(family, []).append(i)
        for rows in families.values():
            C, moment, slot, value = np.zeros(len(rows)), [], [], []
            for col, i in enumerate(rows):
                for e, coeff in program.rows[i][1].items():
                    v = floats.get(id(coeff))
                    if v is None:
                        v = floats[id(coeff)] = float(coeff)
                    if e == zero:
                        C[col] += v
                    else:
                        moment.append(pos[e])
                        slot.append(col)
                        value.append(-v)
            parts.append((_RowCone, rows, C, moment, slot, value))
    else:
        for label, sym in program.psd_blocks:
            k = sym.size
            C, moment, slot, value = np.zeros((k, k)), [], [], []
            for i, j, coeff, e in sym.terms:
                v = floats.get(id(coeff))
                if v is None:
                    v = floats[id(coeff)] = float(coeff)
                if e == zero:
                    C[i, j] += v
                    if i != j:
                        C[j, i] += v
                else:
                    q = pos[e]
                    moment.append(q)
                    slot.append(i * k + j)
                    value.append(-v)
                    if i != j:
                        moment.append(q)
                        slot.append(j * k + i)
                        value.append(-v)
            parts.append((_PsdCone, label, C, moment, slot, value))
    cones = []
    for Cone, labels, C, moment, slot, value in parts:
        A = csr_matrix((value, (moment, slot)), shape=(len(pos), C.size))
        A.eliminate_zeros()
        cones.append((Cone(A, C), labels))
    return cones, pos


def solve(
    program: ConicProgram | LinearProgram, tol: float = 1e-8, max_iter: int = 200
) -> SolveReport:
    """Solve a block-PSD moment relaxation or a cone (LP) relaxation.  On
    optimal status the moments satisfy every block or row to tolerance with
    the unit moment pinned at 1; LP duals follow program row order."""
    if not 1e-12 <= tol <= 1e-2:
        raise ValueError(f"tolerance must lie in [1e-12, 1e-2], got {tol}")
    cones, pos = _cones(program)
    zero = program.layout.zero_exponent
    f0 = float(program.objective.get(zero, 0))
    c = np.zeros(len(pos))
    for e, coeff in program.objective.items():
        if e != zero:
            c[pos[e]] = float(coeff)
    with _blas_on_one_thread():
        raw = _ipm_loop([cone for cone, _ in cones], -c, tol, max_iter)

    if isinstance(program, LinearProgram):
        multipliers = np.empty(len(program.rows))
        for (_, rows), Xc in zip(cones, raw.X):
            multipliers[rows] = Xc
        dual_blocks = [(key, float(multipliers[i])) for i, (key, _) in enumerate(program.rows)]
    else:
        dual_blocks = [(label, Xc) for (_, label), Xc in zip(cones, raw.X)]
    values = dict(zip(program.variable_index, [1.0, *raw.y.tolist()]))
    primal = f0 + float(c @ raw.y)
    dual = f0 - raw.pobj
    return SolveReport(
        status=raw.status,
        primal_objective=primal,
        dual_objective=dual,
        moments=MomentVector(program.layout, values, 2 * program.order),
        dual_blocks=dual_blocks,
        iterations=raw.iterations,
        residuals=Residuals(raw.rel_p, raw.rel_d, abs(primal - dual)),
    )


# The earlier names, which perfbench and the acceptance tests import.
solve_sdp = solve_lp = solve
