"""Self-contained primal-dual interior-point solver.

Assembled programs arrive as linear matrix inequalities in the free moments:
minimize f0 + c.u subject to F0 + sum_i u_i F_i being PSD blockwise (scalar
rows in the linear-programming case).  Internally the solver works on the
equivalent conic pair

    (P)  min <C, X>   s.t.  <A_i, X> = b_i,   X PSD
    (D)  max b.y      s.t.  sum_i y_i A_i + S = C,   S PSD

with A_i = -F_i, C = F0, b = -c, so the (D) variable y is the moment vector
and the (P) variable X collects the Gram multiplier blocks of the dual
representation (the bound certificate).  Search directions use Nesterov-Todd
scaling with a Mehrotra predictor-corrector; elementwise-nonnegative rows
ride along as diagonal blocks with the same formulas.  A cone LP has one
such block per constraint family: every row is a product of g's alone or of
h's alone, so each block reads only the moments of its own side (plus the
shared Y-only ones), and its part of the Schur complement is a dense
(M_b, R_b) by (R_b, M_b) product over those M_b moments.

Each block keeps only its nonzero constraint coefficients, as a sparse
(M, k*k) matrix read straight off the terms of the symbolic localizing
matrices, or an (M, R_b) one off the LP rows.  The Schur complement is built
from those nonzeros (Fujisawa, Kojima and Nakata 1997, formula F1), so a
k x k block that touches M_b moments costs M_b*k^3 per iteration instead of
M^2*k^2.  The rest is dense float64 linear algebra; exactness is recovered
downstream by certificate verification.  There is no randomized state, so
repeated solves of one program are bit-identical.  Infeasibility detection
is heuristic: a presolve catches constant-row contradictions, divergence of
the certificate value with small residuals is reported as infeasible, and
iterates that overflow end in numerical failure.

numpy and scipy wheels each bundle their own OpenBLAS, with one thread pool
each, and on a small machine the two pools fight over the same cores.  While
an IPM runs, scipy's LAPACK (the Schur Cholesky factor and solves, the
triangular solves of the step length) is therefore put on the calling thread,
and numpy keeps its pool for the large products.  The scipy pool's previous
thread count is restored when the last running solve ends, so the caller sees
the same counts before and after.  The count is process-wide in OpenBLAS, so
scipy LAPACK calls made by other threads during a solve also run on one
thread.  Where the symbol is missing (another BLAS) or numpy and scipy share
one library, nothing is changed.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
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


@dataclass
class _Cone:
    kind: str  # "s" PSD block, "l" elementwise-nonnegative rows
    size: int
    # Sparse, no explicit zeros.  s: (M, k*k), column p*k+q holds entry
    # (p, q) of every A_i, both triangles stored;  l: (M, k), one column a row
    A: csr_matrix
    C: np.ndarray  # s: (k, k);  l: (k,)

    def apply(self, X: np.ndarray) -> np.ndarray:
        return self.A @ X.ravel()

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        if self.kind == "s":
            return (self.A.T @ y).reshape(self.size, self.size)
        return self.A.T @ y


class _SparseSchur:
    """Schur complement part H_ij = <A_i, W A_j W> of one PSD block.

    Only the M_b moments the block touches get a row and column.  Y[t, p, j]
    = (A_j W)[p, t] comes from the block's nonzeros at nnz*k cost; its zero
    pattern never changes, so one buffer is rewritten in place.  A batched
    product with W then gives every W A_j W in the (k*k, M_b) layout the
    sparse A contracts directly, for M_b*k^3 + nnz*M_b in all.
    """

    def __init__(self, A: csr_matrix, k: int):
        self.moments = np.flatnonzero(np.diff(A.indptr))
        self.A = A[self.moments]
        m = self.moments.size
        coo = self.A.tocoo()
        p, q = np.divmod(coo.col, k)
        # One row per nonzero row p of some A_j: that row, over q.  Its
        # product with W is column (p, j) of every Y[t].
        self.cols, slot = np.unique(p * m + coo.row, return_inverse=True)
        self.rows = csr_matrix((coo.data, (slot, q)), shape=(self.cols.size, k))
        self.Y = np.zeros((k, k, m))

    def __call__(self, W: np.ndarray) -> np.ndarray:
        k, _, m = self.Y.shape
        self.Y.reshape(k, k * m)[:, self.cols] = (self.rows @ W).T
        WAW = np.matmul(W, self.Y)  # [t, r, j] = (W A_j W)[r, t]
        return self.A @ WAW.reshape(k * k, m)


class _DiagonalSchur:
    """Schur complement part H_ij = sum_r A_ir w_r A_jr of one block of
    nonnegative rows with scaling w, over the M_b moments its rows touch:
    a dense (M_b, R_b) by (R_b, M_b) product."""

    def __init__(self, A: csr_matrix):
        self.moments = np.flatnonzero(np.diff(A.indptr))
        self.A = A[self.moments].toarray()

    def __call__(self, w: np.ndarray) -> np.ndarray:
        return (self.A * w) @ self.A.T


@dataclass
class _RawResult:
    status: str
    X: list
    S: list
    y: np.ndarray
    iterations: int
    rel_p: float
    rel_d: float
    pobj: float
    dobj: float


def _check_tol(tol: float) -> None:
    if not 1e-12 <= tol <= 1e-2:
        raise ValueError(f"tolerance must lie in [1e-12, 1e-2], got {tol}")


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def _inner(cone: _Cone, X, S) -> float:
    if cone.kind == "s":
        return float(np.tensordot(X, S))
    return float(X @ S)


def _max_step_s(L: np.ndarray, dX: np.ndarray) -> float:
    # Largest a with X + a dX PSD, given X = L L^T.
    B = solve_triangular(L, dX, lower=True)
    B = solve_triangular(L, B.T, lower=True).T
    lam_min = float(np.linalg.eigvalsh(_sym(B))[0])
    if lam_min >= -1e-14:
        return np.inf
    return -1.0 / lam_min


def _max_step_l(x: np.ndarray, dx: np.ndarray) -> float:
    neg = dx < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(x[neg] / -dx[neg]))


def _max_steps(cones, scal, S, dX, dS) -> tuple[float, float]:
    """Largest primal and dual steps along (dX, dS) that stay in every cone,
    inf when no cone bounds them."""
    ap = ad = np.inf
    for c, sc, Sc, dXc, dSc in zip(cones, scal, S, dX, dS):
        if c.kind == "s":
            ap = min(ap, _max_step_s(sc.Lx, dXc))
            ad = min(ad, _max_step_s(sc.Ls, dSc))
        else:
            ap = min(ap, _max_step_l(sc.x, dXc))
            ad = min(ad, _max_step_l(Sc, dSc))
    return ap, ad


class _Scaling:
    """Nesterov-Todd scaling point data for one cone.

    For a PSD cone, R satisfies R^-1 X R^-T = R^T S R = diag(lam); the
    scaling matrix is W = R R^T and the scaled complementarity target is
    diagonal, which makes the Mehrotra correction a Lyapunov-style division
    by lam_i + lam_j.
    """

    def __init__(self, cone: _Cone, X, S):
        if cone.kind == "s":
            self.Lx = np.linalg.cholesky(X)
            self.Ls = np.linalg.cholesky(S)
            _, lam, Vt = np.linalg.svd(self.Ls.T @ self.Lx)
            if np.min(lam) <= 0:
                raise np.linalg.LinAlgError("lost positive definiteness")
            self.lam = lam
            self.R = self.Lx @ (Vt.T / np.sqrt(lam))
            eye = np.eye(cone.size)
            self.Rinv = (Vt * np.sqrt(lam)[:, None]) @ solve_triangular(
                self.Lx, eye, lower=True
            )
            self.W = self.R @ self.R.T
        else:
            self.x = X
            self.w2 = X / S
            self.Sinv = 1.0 / S

    def congruence(self, mat):
        """W M W, the symmetric scaling of one block."""
        return self.W @ mat @ self.W if hasattr(self, "W") else self.w2 * mat

    def corrector_rhs(self, sigma_mu: float, dX, dS):
        """Right-hand side of the centering-corrector complementarity
        equation, mapped back to the unscaled space."""
        dXt = self.Rinv @ dX @ self.Rinv.T
        dSt = self.R.T @ dS @ self.R
        rhs = -0.5 * (dXt @ dSt + dSt @ dXt)
        idx = np.diag_indices(rhs.shape[0])
        rhs[idx] += sigma_mu - self.lam**2
        scaled = 2.0 * rhs / (self.lam[:, None] + self.lam[None, :])
        return self.R @ scaled @ self.R.T


def _presolve_infeasible(cones: list[_Cone], scale: float) -> bool:
    # Constant constraints (zero coefficient rows/blocks) must already be
    # consistent; catches doctored contradictions exactly.
    tiny = 1e-12 * scale
    for cone in cones:
        if cone.kind == "l":
            dead = np.bincount(cone.A.indices, minlength=cone.size) == 0
            if np.any(cone.C[dead] < -tiny):
                return True
        else:
            if cone.A.nnz == 0:
                if float(np.linalg.eigvalsh(_sym(cone.C))[0]) < -tiny:
                    return True
    return False


def _presolve_unbounded(cones: list[_Cone], b: np.ndarray) -> bool:
    # A moment with nonzero objective weight that no block touches is a free
    # ray (e.g. odd moments under purely even constraint products).
    M = b.size
    if M == 0:
        return False
    touched = np.zeros(M, dtype=bool)
    for cone in cones:
        touched |= np.diff(cone.A.indptr) > 0
    return bool(np.any((~touched) & (b != 0)))


def _address(fn) -> int:
    return ctypes.cast(fn, ctypes.c_void_p).value


@cache
def _scipy_thread_setter():
    """OpenBLAS's ``openblas_set_num_threads_local`` in scipy's LAPACK (it
    sets the count and returns the previous one), or None when it is absent,
    a library cannot be opened, or numpy resolves the same function (then
    there is one pool already)."""
    try:
        from numpy.linalg import _umath_linalg
        from scipy.linalg import _flapack

        scipy_lib = ctypes.CDLL(_flapack.__file__)
        numpy_lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    setter = getattr(scipy_lib, "openblas_set_num_threads_local", None)
    twin = getattr(numpy_lib, "openblas_set_num_threads_local", None)
    if setter is None or (twin is not None and _address(twin) == _address(setter)):
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = ctypes.c_int
    return setter


# Despite its name, the setter changes the count of the whole process on
# pthreads builds of OpenBLAS, so overlapping solves in several threads
# share one pin instead of each restoring what another one set.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 0


@contextmanager
def _scipy_blas_on_one_thread():
    """Run scipy's OpenBLAS on one thread for the body; concurrent solves
    share one pin, and the last to leave restores the caller's count."""
    global _pin_depth, _pin_saved
    setter = _scipy_thread_setter()
    if setter is None:
        yield
        return
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = setter(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                setter(_pin_saved)


def _ipm(cones: list[_Cone], b: np.ndarray, tol: float, max_iter: int) -> _RawResult:
    with _scipy_blas_on_one_thread():
        return _ipm_loop(cones, b, tol, max_iter)


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
        # No iteration runs: zero multipliers, S = C.
        X = [np.zeros((c.size, c.size)) if c.kind == "s" else np.zeros(c.size) for c in cones]
        S = [c.C.copy() for c in cones]
        rel = 0.0 if status == OPTIMAL else np.inf
        return _RawResult(status, X, S, np.zeros(M), 0, rel, rel, 0.0, 0.0)

    if _presolve_infeasible(cones, init_scale):
        return idle(INFEASIBLE)
    if _presolve_unbounded(cones, b):
        return idle(UNBOUNDED)
    if M == 0:
        # No free moments: every block is constant, and the presolve has
        # already found each one PSD.
        return idle(OPTIMAL)

    X = [init_scale * (np.eye(c.size) if c.kind == "s" else np.ones(c.size)) for c in cones]
    S = [init_scale * (np.eye(c.size) if c.kind == "s" else np.ones(c.size)) for c in cones]
    y = np.zeros(M)

    schur_parts = [
        _SparseSchur(c.A, c.size) if c.kind == "s" else _DiagonalSchur(c.A) for c in cones
    ]
    status = MAX_ITERATIONS
    iterations = 0
    rel_p = rel_d = np.inf
    pobj = dobj = 0.0
    stalls = 0

    for it in range(max_iter + 1):
        rp = b - sum(c.apply(Xc) for c, Xc in zip(cones, X))
        Rd = [c.C - Sc - c.apply_adjoint(y) for c, Sc in zip(cones, S)]
        gap_xs = sum(_inner(c, Xc, Sc) for c, Xc, Sc in zip(cones, X, S))
        mu = gap_xs / nu
        pobj = sum(_inner(c, c.C, Xc) for c, Xc in zip(cones, X))
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
            scal = [_Scaling(c, Xc, Sc) for c, Xc, Sc in zip(cones, X, S)]

            schur = np.zeros((M, M))
            for c, sc, part in zip(cones, scal, schur_parts):
                block = part(sc.W if c.kind == "s" else sc.w2)
                if part.moments.size == M:
                    schur += block
                else:
                    schur[np.ix_(part.moments, part.moments)] += block
            schur = _sym(schur)
            if not np.isfinite(schur).all():
                raise np.linalg.LinAlgError("non-finite Schur complement")
            jitter = 0.0
            base = 1e-14 * (1.0 + float(np.trace(schur)) / M)
            for attempt in range(4):
                try:
                    fac = cho_factor(schur + jitter * np.eye(M), lower=True, check_finite=False)
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
                for c, sc, R, Rcc in zip(cones, scal, Rd, Rc):
                    rhs += c.apply(sc.congruence(R)) - c.apply(Rcc)
                dy = schur_solve(rhs)
                # Refine against the unregularized system: recovers accuracy
                # lost to jitter and to ill-conditioning near optimality.
                for _ in range(2):
                    dy = dy + schur_solve(rhs - schur @ dy)
                dS = [R - c.apply_adjoint(dy) for c, R in zip(cones, Rd)]
                dX = []
                for c, sc, Rcc, dSc in zip(cones, scal, Rc, dS):
                    step = Rcc - sc.congruence(dSc)
                    dX.append(_sym(step) if c.kind == "s" else step)
                if not all(np.isfinite(d).all() for d in [dy, *dX, *dS]):
                    raise np.linalg.LinAlgError("non-finite Newton direction")
                return dy, dX, dS

            # Predictor: pure Newton step toward complementarity zero.
            Rc_aff = [-Xc for Xc in X]
            dy_a, dX_a, dS_a = newton(Rc_aff)
            ap, ad = (min(1.0, a) for a in _max_steps(cones, scal, S, dX_a, dS_a))
            mu_aff = max(
                0.0,
                sum(
                    _inner(c, Xc + ap * dXc, Sc + ad * dSc)
                    for c, Xc, Sc, dXc, dSc in zip(cones, X, S, dX_a, dS_a)
                )
                / nu,
            )
            sigma = min(0.999, max(1e-10, (mu_aff / mu) ** 3)) if mu > 0 else 0.1

            # Corrector with the second-order complementarity term.
            Rc = []
            for c, sc, Xc, dXc, dSc in zip(cones, scal, X, dX_a, dS_a):
                if c.kind == "s":
                    Rc.append(sc.corrector_rhs(sigma * mu, dXc, dSc))
                else:
                    Rc.append(sigma * mu * sc.Sinv - Xc - dXc * dSc * sc.Sinv)
            dy, dX, dS = newton(Rc)
        except np.linalg.LinAlgError:
            status = NUMERICAL_FAILURE
            break

        ap, ad = (min(1.0, _STEP_FRACTION * a) for a in _max_steps(cones, scal, S, dX, dS))

        if max(ap, ad) < 1e-10:
            stalls += 1
            if stalls >= 3:
                status = NUMERICAL_FAILURE
                break
        else:
            stalls = 0

        X = [Xc + ap * dXc for Xc, dXc in zip(X, dX)]
        X = [_sym(Xc) if c.kind == "s" else Xc for c, Xc in zip(cones, X)]
        y = y + ad * dy
        S = [Sc + ad * dSc for Sc, dSc in zip(S, dS)]
        S = [_sym(Sc) if c.kind == "s" else Sc for c, Sc in zip(cones, S)]
        iterations = it + 1

    return _RawResult(status, X, S, y, iterations, rel_p, rel_d, pobj, dobj)


def _moment_positions(variable_index, layout):
    zero = layout.zero_exponent
    if variable_index[0] != zero:
        raise ValueError("variable index must start with the unit moment")
    return {e: i - 1 for i, e in enumerate(variable_index) if i > 0}


def _sdp_cones(program: ConicProgram):
    layout = program.layout
    zero = layout.zero_exponent
    pos = _moment_positions(program.variable_index, layout)
    M = len(program.variable_index) - 1
    cones = []
    for _, sym in program.psd_blocks:
        k = sym.size
        C = np.zeros((k, k))
        moment, slot, value = [], [], []
        for i, j, coeff, e in sym.terms:
            v = float(coeff)
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
        A = csr_matrix((value, (moment, slot)), shape=(M, k * k))
        A.eliminate_zeros()
        cones.append(_Cone("s", k, A, C))
    return cones, pos, M


def _lp_cones(program: LinearProgram):
    """One cone of nonnegative rows per constraint family, in order of first
    appearance, and the positions in ``program.rows`` of each cone's rows."""
    layout = program.layout
    zero = layout.zero_exponent
    pos = _moment_positions(program.variable_index, layout)
    M = len(program.variable_index) - 1
    families: dict[str, list[int]] = {}
    for i, ((family, _, _), _) in enumerate(program.rows):
        families.setdefault(family, []).append(i)
    # Assembly shares one Fraction per distinct coefficient, so each object
    # is converted once; the rows keep every keyed object alive meanwhile.
    floats: dict[int, float] = {}
    cones = []
    for rows in families.values():
        C = np.zeros(len(rows))
        moment, column, value = [], [], []
        for col, i in enumerate(rows):
            for e, coeff in program.rows[i][1].items():
                v = floats.get(id(coeff))
                if v is None:
                    v = floats[id(coeff)] = float(coeff)
                if e == zero:
                    C[col] += v
                else:
                    moment.append(pos[e])
                    column.append(col)
                    value.append(-v)
        A = csr_matrix((value, (moment, column)), shape=(M, len(rows)))
        A.eliminate_zeros()
        cones.append(_Cone("l", len(rows), A, C))
    return cones, pos, M, list(families.values())


def _objective_vector(program, M: int, pos) -> tuple[np.ndarray, float]:
    zero = program.layout.zero_exponent
    c = np.zeros(M)
    f0 = 0.0
    for e, coeff in program.objective.items():
        if e == zero:
            f0 = float(coeff)
        else:
            c[pos[e]] = float(coeff)
    return c, f0


def _build_report(program, raw: _RawResult, f0: float, c: np.ndarray, dual_blocks) -> SolveReport:
    values = {program.layout.zero_exponent: 1.0}
    for i, e in enumerate(program.variable_index[1:]):
        values[e] = float(raw.y[i])
    moments = MomentVector(program.layout, values, 2 * program.order)
    primal = f0 + float(c @ raw.y)
    dual = f0 - raw.pobj
    return SolveReport(
        status=raw.status,
        primal_objective=primal,
        dual_objective=dual,
        moments=moments,
        dual_blocks=dual_blocks,
        iterations=raw.iterations,
        residuals=Residuals(raw.rel_p, raw.rel_d, abs(primal - dual)),
    )


def solve_sdp(program: ConicProgram, tol: float = 1e-8, max_iter: int = 200) -> SolveReport:
    """Solve a block-PSD moment relaxation.

    On optimal status the reported moments satisfy every block to tolerance
    with the unit moment pinned at 1, and ``dual_blocks`` holds the Gram
    matrices realizing the bound as a weighted sum-of-squares identity.
    """
    _check_tol(tol)
    cones, pos, M = _sdp_cones(program)
    c, f0 = _objective_vector(program, M, pos)
    raw = _ipm(cones, -c, tol, max_iter)
    dual_blocks = [
        (label, Xc) for (label, _), Xc in zip(program.psd_blocks, raw.X)
    ]
    return _build_report(program, raw, f0, c, dual_blocks)


def solve_lp(program: LinearProgram, tol: float = 1e-8, max_iter: int = 200) -> SolveReport:
    """Solve a cone relaxation; row multipliers come back as the duals."""
    _check_tol(tol)
    cones, pos, M, families = _lp_cones(program)
    c, f0 = _objective_vector(program, M, pos)
    raw = _ipm(cones, -c, tol, max_iter)
    multipliers = np.empty(len(program.rows))
    for rows, Xc in zip(families, raw.X):
        multipliers[rows] = Xc
    dual_blocks = [
        (key, float(multipliers[i])) for i, (key, _) in enumerate(program.rows)
    ]
    return _build_report(program, raw, f0, c, dual_blocks)
