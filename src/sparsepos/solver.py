"""Self-contained primal-dual interior-point solver.

Assembled programs arrive as linear matrix inequalities in the free moments:
minimize f0 + c.u subject to F0 + sum_i u_i F_i being PSD blockwise, with
the program's scalar rows as 1 x 1 blocks.  Internally the solver works on the
equivalent conic pair

    (P)  min <C, X>   s.t.  <A_i, X> = b_i,   X PSD
    (D)  max b.y      s.t.  sum_i y_i A_i + S = C,   S PSD

with A_i = -F_i, C = F0, b = -c, so the (D) variable y is the moment vector
and the (P) variable X collects the Gram multiplier blocks of the dual
representation (the bound certificate), found by a Mehrotra
predictor-corrector.

``solve`` is the one entry point for the one program type, whose PSD
blocks and rows go through the same code (``solve_sdp`` and ``solve_lp`` are
aliases, kept for the benchmark and the acceptance tests, which import
those names), and ``_cones`` the one builder.  It places the
moments by side, X-side | Y-only | Z-side | X-Z mixed (the last class only
in dense programs), so that each block of P(g)+P(h) reads one range of them
and the Schur matrix H is block tridiagonal; makes each PSD block and each
family of rows one cone object, labelled with its multipliers; and
stacks their constraint data into one sparse (M, N) operator, N the entries
of all blocks.  The loop holds X, S and the dual residual as flat length-N
vectors with one view per cone, so each A x and A^T y is one sparse
product, and calls each cone's math without knowing its kind.  A
``_PsdCone`` is a k x k SDP block: Nesterov-Todd scaling, and a Schur part
built from its nonzeros (Fujisawa, Kojima and Nakata 1997, formula F1),
M_b*k^3 per iteration instead of M^2*k^2 for a block that touches M_b
moments, w moments at a time in one O(max(k^2, M)*w) workspace per solve.
A ``_RowCone`` is one family of nonnegative LP rows, each a product of g's
alone or of h's alone: x/s scaling, and a Schur part that is a symmetric
rank-R_b update of the dense (M_b, R_b) rows it reads.  Either kind adds
into the view H[lo:hi, lo:hi] when its moments form one range, and through
a gather otherwise (a dense program's localizing blocks).  H is factored in
place, in its upper triangle, and each Newton direction is one solve with
that factor, unrefined.  The rest is dense float64 linear algebra;
exactness is recovered downstream by certificate verification.  There is no
randomized state, so repeated solves of one program are bit-identical.
Infeasibility detection is heuristic: a presolve catches constant-row
contradictions, divergence of the certificate value with small residuals is
reported as infeasible, and iterates that overflow end in numerical failure.

numpy and scipy wheels each bundle their own OpenBLAS, with one thread pool
each.  While ``solve``, ``certify.extract`` or ``certify.verify`` runs, both
pools are put on the calling thread (:func:`_blas_on_one_thread`, a
decorator on each).  On a 2-vCPU machine a second BLAS thread nearly
doubled the CPU time of the dense ladder and bought no wall time, once the
Schur kernels stopped doing work that it had been hiding (one GEMM per PSD
block, SYRK for LP rows, step lengths from the scaling already in hand);
and after an unpinned ``eigh`` of a k x k block, k >= 28 (``extract`` makes
one per block), a woken OpenBLAS worker went on spinning for 0.1-0.2 s,
into the next rungs.  That was measured on 2 vCPUs only; wall time on
rungs larger than the ladders' and on machines with more cores, where big
PSD products lose their other threads, is unverified.  Each library's
previous thread count is restored when the last running pinned call ends,
so the caller sees the same counts before and after.  The count is
process-wide in OpenBLAS, so BLAS calls made by other threads meanwhile
also run on one thread.  Where the symbol is missing (another BLAS),
nothing is changed.
"""

from __future__ import annotations

import ctypes
import importlib
import threading
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dsyrk
from scipy.sparse import csr_matrix, hstack

from .moments import MomentVector
from .relax import ConicProgram

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
MAX_ITERATIONS = "max-iterations"
NUMERICAL_FAILURE = "numerical-failure"

_STEP_FRACTION = 0.98
_DIVERGENCE = 1e10
# Bytes in each of Y, W Y and the rows of H in one PSD Schur chunk.
_CHUNK_BYTES = 1 << 20


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
    PSD block's label with its Gram multiplier matrix, and then each row's
    key with its nonnegative multiplier, both in program order.
    """

    status: str
    primal_objective: float
    dual_objective: float
    moments: MomentVector
    dual_blocks: list
    iterations: int
    residuals: Residuals


def _block(rows: np.ndarray, cols: np.ndarray):
    """Index of the (rows, cols) block of the Schur matrix: a view when both
    run without a gap, an outer gather otherwise."""
    if rows.size and rows[-1] - rows[0] == rows.size - 1 and cols[-1] - cols[0] == cols.size - 1:
        return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)
    return np.ix_(rows, cols)


class _Cone:
    """One block of the conic pair: the interior-point math of its kind, in
    a subclass.

    It is built from its columns ``A`` of the constraint operator, sparse
    with no explicit zeros, one row per free moment, and keeps only the rows
    ``A_b`` of the ``moments`` it touches: the block's part of the Schur
    complement has a row and column for those alone.  ``scale(X, S)`` fixes
    the scaling point that ``schur``, ``congruence``, ``corrector`` and
    ``max_steps`` then read.
    """

    def __init__(self, A: csr_matrix, C: np.ndarray):
        self.workspace = 0  # floats in each chunk buffer that ``schur`` reads
        self.C = C
        self.size = C.shape[0]
        self.moments = np.flatnonzero(np.diff(A.indptr))


class _PsdCone(_Cone):
    """A k x k PSD block; column p*k+q of ``A`` holds entry (p, q) of every
    A_i, both triangles stored.

    Nesterov-Todd scaling: R satisfies R^-1 X R^-T = R^T S R = diag(lam),
    W = R R^T, and the scaled complementarity target is diagonal, which
    makes the Mehrotra correction a Lyapunov-style division by lam_i + lam_j.

    Schur part H_ij = <A_i, W A_j W>, built in chunks of w moments j, with
    8*max(k*k, M)*w bytes about _CHUNK_BYTES so that a chunk stays in
    cache: Y[p, t, j] = (A_j W)[p, t] from the chunk's nonzeros at nnz*k
    cost, one (k, k) by (k, k*w) product W Y for its W A_j W in the
    (k*k, w) layout the sparse A_b contracts directly, and the (M_b, w)
    result added into the caller's Schur matrix: into a view of it, or
    through a gather of its (w, M_b) block when the moments have gaps.
    M_b*k^3 + nnz*M_b in all, in O(max(k*k, M)*w) workspace rather than
    O(k*k*M_b): Y and W Y are buffers of ``workspace`` floats that all
    blocks share.
    """

    def __init__(self, A: csr_matrix, C: np.ndarray):
        super().__init__(A, C)
        k, m = self.size, self.moments.size
        self.A_b = A[self.moments]
        coo = self.A_b.tocoo()
        p, q = np.divmod(coo.col, k)
        # One row per nonzero row p of some A_j, ordered by j: that row, over
        # q.  Its product with W is Y[p, :, j].
        keys, slot = np.unique(coo.row * k + p, return_inverse=True)
        j, p = np.divmod(keys, k)
        rows = csr_matrix((coo.data, (slot, q)), shape=(keys.size, k))
        w = max(1, min(m, _CHUNK_BYTES // (8 * max(k * k, A.shape[0]))))
        self.workspace = k * k * w
        self.chunks = []
        for j0 in range(0, m, w):
            lo, hi = np.searchsorted(j, [j0, j0 + w])
            at = _block(self.moments[j0 : j0 + w], self.moments)
            self.chunks.append((at, min(w, m - j0), rows[lo:hi], p[lo:hi], j[lo:hi] - j0))

    def unit(self) -> np.ndarray:
        return np.eye(self.size)

    @staticmethod
    def sym(mat: np.ndarray) -> np.ndarray:
        return 0.5 * (mat + mat.T)

    def constant_infeasible(self, tiny: float) -> bool:
        # A block that reads no moment must already be PSD.
        return self.moments.size == 0 and float(np.linalg.eigvalsh(self.sym(self.C))[0]) < -tiny

    def scale(self, X: np.ndarray, S: np.ndarray) -> None:
        # Ls^T Lx = U diag(lam) V^T, so Lx^-1 = V diag(lam)^-1 U^T Ls^T and
        # R^-1 needs no triangular solve (Todd, Toh and Tutuncu 1998).
        Lx, Ls = np.linalg.cholesky(X), np.linalg.cholesky(S)
        U, lam, Vt = np.linalg.svd(Ls.T @ Lx)
        if np.min(lam) <= 0:
            raise np.linalg.LinAlgError("lost positive definiteness")
        self.lam = lam
        d = 1.0 / np.sqrt(lam)
        self.R = Lx @ (Vt.T * d)
        self.Rinv = (U.T * d[:, None]) @ Ls.T
        self.W = self.R @ self.R.T
        # Rows of R^-1 and R^T scaled by lam^-1/2: they map X + a dX and
        # S + a dS to I + a D, whose smallest eigenvalue bounds the step.
        self.steps = np.stack((self.Rinv * d[:, None], self.R.T * d[:, None]))

    def schur(self, H: np.ndarray, Y: np.ndarray, WY: np.ndarray) -> None:
        # Y is all zeros on entry and again on return: each chunk clears it.
        k = self.size
        for at, n, rows, p, j in self.chunks:
            Yc = Y[: k * k * n].reshape(k, k, n)
            Yc[p, :, j] = rows @ self.W
            # WAW[r, t*n + j] = (W A_j W)[r, t]
            WAW = np.matmul(self.W, Yc.reshape(k, -1), out=WY[: k * k * n].reshape(k, -1))
            Yc[p, :, j] = 0.0
            # The part is symmetric, up to rounding that Cholesky never sees
            # (it reads one triangle), so the chunk's columns go in as rows.
            H[at] += (self.A_b @ WAW.reshape(k * k, n)).T

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
        # Largest a with I + a D PSD, for both D at once; eigvalsh reads one
        # triangle.  inf when no eigenvalue bounds it.
        D = self.steps @ np.stack((dX, dS)) @ self.steps.transpose(0, 2, 1)
        lam_min = np.linalg.eigvalsh(D)[:, 0]
        return tuple(np.inf if v >= -1e-14 else -1.0 / v for v in lam_min.tolist())


class _RowCone(_Cone):
    """Elementwise-nonnegative rows, column r of ``A`` holding row r.  The
    scaling is w = x/s, and the Schur part H_ij = sum_r A_ir w_r A_jr is a
    symmetric rank-R_b update (BLAS SYRK) of (A_b * sqrt(w)), which computes
    one triangle: half the flops of the full (M_b, R_b) by (R_b, M_b)
    product."""

    def __init__(self, A: csr_matrix, C: np.ndarray):
        super().__init__(A, C)
        self.A_b = A[self.moments].toarray()
        self.at = _block(self.moments, self.moments)

    def unit(self) -> np.ndarray:
        return np.ones(self.size)

    @staticmethod
    def sym(vec: np.ndarray) -> np.ndarray:
        return vec

    def constant_infeasible(self, tiny: float) -> bool:
        # Rows that read no moment must already be nonnegative.
        return bool(np.any(self.C[~self.A_b.any(axis=0)] < -tiny))

    def scale(self, x: np.ndarray, s: np.ndarray) -> None:
        self.x, self.s = x, s
        self.w = x / s
        self.Sinv = 1.0 / s

    def schur(self, H: np.ndarray, *_) -> None:
        # Needs no chunk buffers.  The transpose of the C-ordered product is
        # the Fortran array SYRK reads without a copy.  It fills the lower
        # triangle; the loop adds full parts, so the upper one is mirrored in.
        L = dsyrk(1.0, (self.A_b * np.sqrt(self.w)).T, lower=1, trans=1)
        L += np.tril(L, -1).T
        H[self.at] += L

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
# pthreads builds of OpenBLAS, so overlapping pinned calls in several threads
# share one pin instead of each restoring what another one set.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: list[tuple] = []


@contextmanager
def _blas_on_one_thread():
    """Run every OpenBLAS pool on one thread for the body; overlapping and
    nested pinned calls share one pin, and the last to leave restores the
    caller's counts."""
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


def _factor(cones: list[_Cone], H: np.ndarray, Y: np.ndarray, WY: np.ndarray) -> tuple:
    """Build the Schur complement H = sum of the cones' parts and Cholesky-
    factor it in place: U^T U = H + jitter*I in H's upper triangle and
    diagonal, the jitter 0 unless an attempt fails.  A failed attempt leaves
    part of a factor over H, so each retry builds H again.  Returns
    ``cho_solve``'s factor."""
    for attempt in range(4):
        H.fill(0.0)
        for c in cones:
            if c.moments.size:  # a cone that reads no moment has none
                c.schur(H, Y, WY)
        if attempt == 0:
            base = 1e-14 * (1.0 + float(H.diagonal().mean()))
        else:
            np.fill_diagonal(H, H.diagonal() + base * (100.0 ** (attempt - 1) + 1.0))
        try:
            # H.T is Fortran-ordered: LAPACK's lower triangle is H's upper one.
            fac = cho_factor(H.T, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError:
            continue
        # OpenBLAS's potrf does not fail on a NaN or inf it reads; the factor's
        # diagonal comes back non-finite instead.
        if not np.isfinite(fac[0].diagonal()).all():
            raise np.linalg.LinAlgError("non-finite Schur complement")
        return fac
    raise np.linalg.LinAlgError("Schur complement not positive definite")


def _ipm_loop(cones: list, A: csr_matrix, b: np.ndarray, tol: float, max_iter: int) -> _RawResult:
    """Mehrotra predictor-corrector on the cones, whose columns of the
    stacked operator ``A`` follow one another in cone order."""
    M = b.size
    At = A.T  # a CSC view sharing A's arrays
    cuts = np.cumsum([0] + [c.C.size for c in cones]).tolist()
    parts = [(slice(lo, hi), c.C.shape) for c, lo, hi in zip(cones, cuts, cuts[1:])]

    def views(v: np.ndarray) -> list:
        return [v[at].reshape(shape) for at, shape in parts]

    def flat(blocks) -> np.ndarray:
        return np.concatenate([block.ravel() for block in blocks])

    def max_steps(dX: np.ndarray, dS: np.ndarray):
        # Largest primal and dual steps that stay in every cone, inf when
        # none bounds them.
        steps = [c.max_steps(*d) for c, *d in zip(cones, views(dX), views(dS))]
        return (min(v) for v in zip(*steps))

    C = flat(c.C for c in cones)
    nu = sum(c.size for c in cones)
    norm_b = float(np.linalg.norm(b))
    norm_C = float(np.linalg.norm(C))
    init_scale = 1.0 + max(norm_b, float(np.max(np.abs(np.r_[C, A.data]), initial=0.0)))

    def idle(status: str) -> _RawResult:
        # No iteration runs: zero multipliers.
        rel = 0.0 if status == OPTIMAL else np.inf
        return _RawResult(status, views(np.zeros(C.size)), np.zeros(M), 0, rel, rel, 0.0)

    # Constant constraints must already be consistent; catches doctored
    # contradictions exactly.
    if any(c.constant_infeasible(1e-12 * init_scale) for c in cones):
        return idle(INFEASIBLE)
    # A moment with nonzero objective weight that no block touches is a free
    # ray (e.g. odd moments under purely even constraint products).
    if np.any((np.diff(A.indptr) == 0) & (b != 0)):
        return idle(UNBOUNDED)
    if M == 0:
        # No free moments: every block is constant, and the presolve has
        # already found each one PSD.
        return idle(OPTIMAL)

    X = init_scale * flat(c.unit() for c in cones)
    S = X.copy()
    y = np.zeros(M)
    # The Schur matrix, refilled and factored in place each iteration.
    n = max(c.workspace for c in cones)
    schur, Y, WY = np.empty((M, M)), np.zeros(n), np.empty(n)

    status = MAX_ITERATIONS
    iterations = 0
    rel_p = rel_d = np.inf
    pobj = 0.0
    stalls = 0

    for it in range(max_iter + 1):
        rp = b - A @ X
        Rd = C - S - At @ y
        gap_xs = float(X @ S)
        mu = gap_xs / nu
        pobj = float(C @ X)
        dobj = float(b @ y)
        rel_p = float(np.linalg.norm(rp)) / (1.0 + norm_b)
        rel_d = float(np.linalg.norm(Rd)) / (1.0 + norm_C)
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
            for c, Xc, Sc in zip(cones, views(X), views(S)):
                c.scale(Xc, Sc)
            fac = _factor(cones, schur, Y, WY)
            WRd = flat(c.congruence(R) for c, R in zip(cones, views(Rd)))

            def newton(Rc):
                rhs = rp + A @ (WRd - Rc)
                # Diverging iterates overflow here first (infeasible input).
                if not np.isfinite(rhs).all():
                    raise np.linalg.LinAlgError("non-finite Newton right-hand side")
                dy = cho_solve(fac, rhs, check_finite=False)
                dS = Rd - At @ dy
                pairs = zip(cones, views(Rc), views(dS))
                dX = flat(c.sym(R - c.congruence(D)) for c, R, D in pairs)
                if not (np.isfinite(dy).all() and np.isfinite(dX).all() and np.isfinite(dS).all()):
                    raise np.linalg.LinAlgError("non-finite Newton direction")
                return dy, dX, dS

            # Predictor: pure Newton step toward complementarity zero.
            dy_a, dX_a, dS_a = newton(-X)
            ap, ad = (min(1.0, a) for a in max_steps(dX_a, dS_a))
            mu_aff = max(0.0, float((X + ap * dX_a) @ (S + ad * dS_a)) / nu)
            sigma = min(0.999, max(1e-10, (mu_aff / mu) ** 3)) if mu > 0 else 0.1

            # Corrector with the second-order complementarity term.
            affine = zip(cones, views(dX_a), views(dS_a))
            dy, dX, dS = newton(flat(c.corrector(sigma * mu, *d) for c, *d in affine))
        except np.linalg.LinAlgError:
            status = NUMERICAL_FAILURE
            break

        ap, ad = (min(1.0, _STEP_FRACTION * a) for a in max_steps(dX, dS))

        if max(ap, ad) < 1e-10:
            stalls += 1
            if stalls >= 3:
                status = NUMERICAL_FAILURE
                break
        else:
            stalls = 0

        # dX and dS are symmetric block by block, so X and S stay so.
        X = X + ap * dX
        y = y + ad * dy
        S = S + ad * dS
        iterations = it + 1

    return _RawResult(status, views(X), y, iterations, rel_p, rel_d, pobj)


def _float(coeff, part: str) -> float:
    try:
        return float(coeff)
    except OverflowError:
        raise ValueError(f"{part} has a coefficient beyond float range") from None


# Moment classes by (has an X digit, has a Z digit), in placement order:
# X-side, Y-only, Z-side, X-Z mixed.
_PLACE = {(True, False): 0, (False, False): 1, (False, True): 2, (True, True): 3}


def _cones(program: ConicProgram) -> tuple[list, csr_matrix, dict]:
    """The program's cones, each with the labels of its multipliers, their
    stacked (M, N) constraint operator, and the position of every free
    moment by packed exponent, in ``variable_index`` order.

    The moments are placed by side, X-side | Y-only | Z-side | X-Z mixed,
    each class in ``variable_index`` order, so that a block on one side
    reads one range of them.  Each PSD block gives one ``_PsdCone`` labelled
    by its ``BlockLabel``, and then the rows give one ``_RowCone`` per
    constraint family, in order of first appearance, labelled by the
    positions in ``program.rows`` of its rows.  The two entry loops differ
    in their slots only: entry (i, j) of a k x k block fills slots i*k+j and
    j*k+i, row r of a family fills slot r.
    """
    layout = program.layout
    if program.variable_index[0] != layout.zero_exponent:
        raise ValueError("variable index must start with the unit moment")
    packed = [layout.pack(e) for e in program.variable_index[1:]]
    x, z = layout.outside("yz"), layout.outside("xy")
    order = np.argsort([_PLACE[bool(p & x), bool(p & z)] for p in packed], kind="stable")
    pos = dict(zip(packed, np.argsort(order).tolist()))  # the inverse permutation
    # Assembly shares one Fraction per distinct coefficient, so each object
    # is converted once; the program keeps every keyed object alive meanwhile.
    floats: dict[int, float] = {}
    cones, columns = [], []

    def add(Cone, labels, C, moment, slot, value):
        # Called as soon as a block's entries are read, so they are freed
        # block by block: the stacked operator is the one full copy.
        A = csr_matrix((value, (moment, slot)), shape=(len(pos), C.size))
        A.eliminate_zeros()
        cones.append((Cone(A, C), labels))
        columns.append(A)

    for label, sym in program.psd_blocks:
        k = sym.size
        C, moment, slot, value = np.zeros((k, k)), array("q"), array("q"), array("d")
        for i, j, coeff, p in sym.terms:
            v = floats.get(id(coeff))
            if v is None:
                v = floats[id(coeff)] = _float(coeff, f"block {label.name()}")
            if p == 0:
                C[i, j] += v
                if i != j:
                    C[j, i] += v
            else:
                q = pos[p]
                moment.append(q)
                slot.append(i * k + j)
                value.append(-v)
                if i != j:
                    moment.append(q)
                    slot.append(j * k + i)
                    value.append(-v)
        add(_PsdCone, label, C, moment, slot, value)
    families: dict[str, list[int]] = {}
    for i, ((family, _, _), _) in enumerate(program.rows):
        families.setdefault(family, []).append(i)
    for family, rows in families.items():
        C, moment, slot, value = np.zeros(len(rows)), array("q"), array("q"), array("d")
        for col, i in enumerate(rows):
            for p, coeff in program.rows[i][1].items():
                v = floats.get(id(coeff))
                if v is None:
                    v = floats[id(coeff)] = _float(coeff, f"row family {family}")
                if p == 0:
                    C[col] += v
                else:
                    moment.append(pos[p])
                    slot.append(col)
                    value.append(-v)
        add(_RowCone, rows, C, moment, slot, value)
    return cones, hstack(columns, format="csr"), pos


@_blas_on_one_thread()
def solve(program: ConicProgram, tol: float = 1e-8, max_iter: int = 200) -> SolveReport:
    """Solve a moment relaxation: its PSD blocks and its nonnegative rows.
    On optimal status the moments satisfy every block and row to tolerance
    with the unit moment pinned at 1; the row duals follow program row
    order, after the blocks' Gram matrices.

    ``ValueError`` refuses a program with an exact coefficient beyond float
    range, naming the objective, the block or the row family that holds it.
    """
    if not 1e-12 <= tol <= 1e-2:
        raise ValueError(f"tolerance must lie in [1e-12, 1e-2], got {tol}")
    cones, A, pos = _cones(program)
    f0 = _float(program.objective.get(0, 0), "the objective")
    c = np.zeros(len(pos))
    for p, coeff in program.objective.items():
        if p:
            c[pos[p]] = _float(coeff, "the objective")
    raw = _ipm_loop([cone for cone, _ in cones], A, -c, tol, max_iter)

    blocks = program.num_blocks
    dual_blocks = [(label, Xc) for (_, label), Xc in zip(cones, raw.X[:blocks])]
    multipliers = np.empty(program.num_rows)
    for (_, rows), Xc in zip(cones[blocks:], raw.X[blocks:]):
        multipliers[rows] = Xc
    dual_blocks += [(key, v) for (key, _), v in zip(program.rows, multipliers.tolist())]
    values = dict(zip(program.variable_index, [1.0, *raw.y[list(pos.values())].tolist()]))
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
