"""The randomized property checks of the `verify` command (`run`, which
`envelope.verify_envelope` calls), with their samplers and the ellipticity
bounds, kept out of `envma.envelope` so that only the command that checks
the kernel compiles them.  The grid oracle the tests check the kernel
against lives beside the tests, in tests/oracles.py.

The random samples of the checks are drawn in blocks (`draw_verify_block`):
each drawn field of a sample has its own generator spawned from the seed,
and one call of one function (`_in_box`, `_psd`, `_unitaries`) draws and
shapes a field for the whole block.
Hermitian matrices, unitaries among them, are complex arrays throughout;
`mc.embed` turns one into its real 2n x 2n form (a unitary into a
J-commuting rotation).  The checks read values and eigenvalues only, from
the kernel's `envelope._certify_values`.
"""

from __future__ import annotations

import functools

import numpy as np

from . import envelope, matio
from . import matrixcore as mc


# ---------------------------------------------------------------------------
# the ellipticity bounds
# ---------------------------------------------------------------------------

def _gap_bounds(P: np.ndarray,
                box: envelope.ThetaBox) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, upper, ||P||) of the ellipticity bounds for a symmetric PSD
    stack P of shape (N, 2n, 2n); raises ValueError if any P is indefinite.

    For P >= 0 the increment gap = Ftilde(M+P) - Ftilde(M) obeys

        theta * lambda_max(proj P)  <=  gap  <=  (2n/theta) * ||P||,

    with ||.|| the spectral norm.  The lower bound follows from slope
    eigenvalues >= theta acting on the eigenvalue increments of proj(P); when
    P itself commutes with J it strengthens to theta * ||P||.
    """
    wP = np.linalg.eigvalsh(P)
    nrmP = np.max(np.abs(wP), axis=1)
    bad = wP[:, 0] < -1e-12 * np.maximum(1.0, nrmP)
    if bad.any():
        raise ValueError(f"perturbation has eigenvalue {wP[np.argmax(bad), 0]:g}")
    nu_max = mc.herm_eigensystem(mc.hermitian_blocks(P))[0][:, -1]
    lower = box.theta * np.maximum(nu_max, 0.0)
    upper = 2 * box.n * box.hi * nrmP
    return lower, upper, nrmP


# ---------------------------------------------------------------------------
# randomized property verification
# ---------------------------------------------------------------------------

PROPERTY_NAMES = (
    "concavity",
    "domination",
    "agreement",
    "ellipticity",
    "projection",
    "rotation",
)

_PSD_KINDS = ("gram", "embedded", "rank1", "scalar")

# samples drawn and checked per `_certify_values` call in `run`: as many as
# fill one kernel block, since `_check_samples` certifies seven matrices per
# sample (585 samples, 4095 rows).  The memory bound is the one the solver's
# certification accepts: one kernel block of temporaries.  Against blocks of
# 128, the peak anonymous memory of a 1000-sample run, polled every 2 ms,
# went 17.2 -> 17.6 MiB at n = 1, 17.6 -> 18.9-19.4 MiB at n = 2,
# 19.3 -> 24.1 MiB at n = 4 and 25.8 -> 49.2-50.2 MiB at n = 8.
_VERIFY_BLOCK = envelope._CERT_BLOCK // 7


class PropertyReport:
    """Outcome of randomized envelope checks; failures recorded, not thrown.
    passed and failed count samples per property of PROPERTY_NAMES, and
    first_failure is None or (property, sample, matrix checked) of the
    earliest failing sample, on a tie the first property of PROPERTY_NAMES."""

    def __init__(self, box: envelope.ThetaBox, samples: int, seed: int):
        self.box, self.samples, self.seed = box, samples, seed
        self.passed = dict.fromkeys(PROPERTY_NAMES, 0)
        self.failed = dict.fromkeys(PROPERTY_NAMES, 0)
        self.gap_ratio_min: float | None = None
        self.gap_ratio_max: float | None = None
        self.first_failure = None

    @property
    def all_pass(self) -> bool:
        return all(v == 0 for v in self.failed.values())

    def format(self) -> str:
        lines = [
            f"theta = {matio.fmt(self.box.theta)}",
            f"n = {self.box.n}",
            f"samples = {self.samples}",
            f"seed = {self.seed}",
        ]
        for name in PROPERTY_NAMES:
            lines.append(f"{name}_pass = {self.passed[name]}")
            lines.append(f"{name}_fail = {self.failed[name]}")
        if self.gap_ratio_min is not None:
            lines.append(f"gap_over_spectral_norm_min = {matio.fmt(self.gap_ratio_min)}")
            lines.append(f"gap_over_spectral_norm_max = {matio.fmt(self.gap_ratio_max)}")
        lines.append(f"all_pass = {'true' if self.all_pass else 'false'}")
        return "\n".join(lines) + "\n"


def _symmetrized(S: np.ndarray, shift) -> np.ndarray:
    """(S + S^T)/2 + shift*I for a stack S of shape (..., d, d) and shifts of
    shape (...)."""
    shift = np.asarray(shift)[..., np.newaxis, np.newaxis]
    return (S + S.swapaxes(-1, -2)) / 2.0 + shift * np.eye(S.shape[-1])


def _complex_gaussian(rng, m: int, n: int) -> np.ndarray:
    """m complex Gaussian n x n matrices from one draw, the real and then the
    imaginary part of each matrix in turn, so a matrix does not depend on how
    many are drawn with it."""
    g = rng.normal(size=(m, 2, n, n))
    return g[:, 0] + 1j * g[:, 1]


def _unitaries(rng, m: int, n: int) -> np.ndarray:
    """m random n x n unitaries: the Q of the QR decomposition of each of m
    complex Gaussians, with the phases of diag(R) moved into Q."""
    Q, R = np.linalg.qr(_complex_gaussian(rng, m, n))
    ph = np.diagonal(R, axis1=-2, axis2=-1).copy()
    ph = ph / np.abs(ph)
    return Q * ph[..., np.newaxis, :].conj()


def _in_box(rngs: tuple, box: envelope.ThetaBox, m: int) -> np.ndarray:
    """m stacked in-box matrices: the embedded U diag(mu) U^H plus the
    J-anticommuting part of a symmetric matrix, with mu, U and the
    symmetric part drawn from the three generators of rngs in turn."""
    rng_mu, rng_Z, rng_S = rngs
    mu = rng_mu.uniform(box.theta, box.hi, size=(m, box.n))
    U = _unitaries(rng_Z, m, box.n)
    core = mc.embed(mc.hermitian_part((U * mu[..., np.newaxis, :])
                                      @ U.conj().swapaxes(-1, -2)))
    S = rng_S.uniform(-1.0, 1.0, size=(m, 2 * box.n, 2 * box.n))
    S = _symmetrized(S, 0.0)
    return core + (S - mc.embed(mc.hermitian_blocks(S)))


def _psd(rng, d: int, kind: str, m: int) -> np.ndarray:
    """m PSD perturbations of one kind, stacked along a leading axis."""
    if kind == "gram":
        G = rng.uniform(-1.0, 1.0, size=(m, d, d))
        return (G @ G.swapaxes(-1, -2)) / d
    if kind == "embedded":
        Z = _complex_gaussian(rng, m, d // 2)
        return mc.embed(mc.hermitian_part((Z @ Z.conj().swapaxes(-1, -2)) / (d // 2)))
    if kind == "rank1":
        v = rng.normal(size=(m, d))
        row, col = v[..., np.newaxis, :], v[..., :, np.newaxis]
        return (col * row) / (row @ col)
    if kind == "scalar":
        c = rng.uniform(0.1, 2.0, size=m)
        return c[..., np.newaxis, np.newaxis] * np.eye(d)
    raise ValueError(f"unknown psd kind {kind!r}")


# the drawn fields of a verify sample, one generator each (verify_streams)
_VERIFY_FIELDS = ("shift1", "S1", "shift2", "S2", "mu", "Z", "S", "Z_rot") + _PSD_KINDS


def verify_streams(seed: int) -> dict:
    """One generator per field of _VERIFY_FIELDS, spawned from SeedSequence(seed)."""
    children = np.random.SeedSequence(seed).spawn(len(_VERIFY_FIELDS))
    return {name: np.random.default_rng(c) for name, c in zip(_VERIFY_FIELDS, children)}


def draw_verify_block(streams: dict, box: envelope.ThetaBox, start: int, stop: int) -> dict:
    """Samples start..stop-1 of a verify run, as stacks along a leading axis.

    Sample idx consists of m1 and m2 (symmetric; m1 shifted by a random
    multiple of I when idx is even, m2 when idx is divisible by 3), an in-box
    matrix m_in, a PSD perturbation P of kind _PSD_KINDS[idx % 4] (its name
    in P_kind) and a J-commuting rotation R.  Each drawn field has its own
    generator in `streams` (see verify_streams), and one call draws it for
    the whole block: the shifts for every sample, then masked, and each PSD
    kind over its own rows.  Every generator is read in sample order, so a
    sample does not depend on the block it falls in.
    """
    n, d, m = box.n, 2 * box.n, stop - start
    idx = np.arange(start, stop)
    shift1 = np.where(idx % 2 == 0, streams["shift1"].uniform(0.0, 3.0, size=m), 0.0)
    m1 = _symmetrized(streams["S1"].uniform(-1.0, 1.0, size=(m, d, d)), shift1)
    shift2 = np.where(idx % 3 == 0, streams["shift2"].uniform(0.0, 3.0, size=m), 0.0)
    m2 = _symmetrized(streams["S2"].uniform(-1.0, 1.0, size=(m, d, d)), shift2)
    P = np.empty((m, d, d))
    for k, kind in enumerate(_PSD_KINDS):
        rows = np.flatnonzero(idx % len(_PSD_KINDS) == k)
        if rows.size:
            P[rows] = _psd(streams[kind], d, kind, rows.size)
    return {
        "m1": m1,
        "m2": m2,
        "m_in": _in_box((streams["mu"], streams["Z"], streams["S"]), box, m),
        "P": P,
        "P_kind": tuple(_PSD_KINDS[i % len(_PSD_KINDS)] for i in range(start, stop)),
        "R": mc.embed(_unitaries(streams["Z_rot"], m, n)),
    }


def _check_samples(box: envelope.ThetaBox, block: dict) -> dict:
    """Property checks of a block of samples (see draw_verify_block),
    vectorized over samples.

    Returns, per property name, a boolean array of passes and an array of
    flags saying where the property makes a claim, plus "gap_ratio" (NaN
    where ||P|| = 0).  Each check's slack is relative to the values it
    compares (`_magnitude`).  One `_certify_values` call covers all seven
    matrices of every sample; the checks read its values and eigenvalues and
    form no certificates.
    """
    m1, m2, m_in, R = block["m1"], block["m2"], block["m_in"], block["R"]
    N = len(m1)
    th, n = box.theta, box.n
    P = mc.symmetric_stack(block["P"])
    jc = np.array([kind in ("embedded", "scalar") for kind in block["P_kind"]], dtype=bool)
    value, state = envelope._certify_values(envelope._hermitian_parts(np.concatenate([
        m1, m2, (m1 + m2) / 2.0, m_in, m1 + P,
        mc.embed(mc.hermitian_blocks(m1)), R @ m1 @ R.swapaxes(1, 2),
    ]), box), box)
    f1, f2, fmid, ften, f1p, fp, fr = value.reshape(7, N)
    claims = np.ones(N, dtype=bool)
    out = {}
    out["concavity"] = (fmid >= (f1 + f2) / 2.0 - 1e-9 * _magnitude(f1, f2, fmid), claims)

    mu = state[1][3 * N:4 * N]
    pos = mu[:, 0] > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        fval = mc.geometric_mean(np.maximum(mu, 1e-300))
        tangent = pos & envelope.tangent_in_box(mu, box)
    out["domination"] = (~pos | (ften >= fval - 1e-9 * _magnitude(ften, fval)), claims)
    # where the tangent slope leaves the box the envelope makes no claim
    out["agreement"] = (np.abs(ften - fval) <= 1e-8 * np.maximum(1.0, np.abs(fval)), tangent)

    lower, upper, nrm = _gap_bounds(P, box)
    gap = f1p - f1
    slack = 1e-9 * _magnitude(f1p, f1)
    ok = (lower - slack <= gap) & (gap <= upper + slack)
    # J-commuting perturbations enjoy the stronger theta*||P|| bound
    ok &= ~jc | (gap >= th * nrm - slack)
    out["ellipticity"] = (ok, claims)
    with np.errstate(invalid="ignore", divide="ignore"):
        out["gap_ratio"] = np.where(nrm > 0, gap / nrm, np.nan)

    out["projection"] = (np.abs(f1 - fp) <= 1e-10 * _magnitude(f1), claims)
    out["rotation"] = (np.abs(f1 - fr) <= 1e-9 * _magnitude(f1), claims)
    return out


def _magnitude(*values: np.ndarray) -> np.ndarray:
    """max(1, |v|) over the compared values v: the scale of their rounding."""
    return functools.reduce(np.maximum, map(np.abs, values), 1.0)


def run(box: envelope.ThetaBox, samples: int, seed: int) -> PropertyReport:
    """Randomized verification of the envelope's structural properties.

    Draws `samples` deterministic samples and checks midpoint concavity,
    domination/agreement on the box, the two-sided ellipticity bounds,
    projection factorization and rotation invariance.  Samples are drawn as
    stacks and checked in blocks of _VERIFY_BLOCK (`draw_verify_block`), so
    memory stays bounded and the report does not depend on the block size.
    Raises ValueError, before drawing anything, when box.n exceeds
    MAX_DIM // 2 or samples or seed is negative.
    """
    if box.n > mc.MAX_DIM // 2:
        raise ValueError(f"n={box.n} exceeds the supported maximum {mc.MAX_DIM // 2}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    report = PropertyReport(box, samples, seed)
    streams = verify_streams(seed)
    ratios = []
    for start in range(0, samples, _VERIFY_BLOCK):
        block = draw_verify_block(streams, box, start, min(start + _VERIFY_BLOCK, samples))
        res = _check_samples(box, block)
        for name in PROPERTY_NAMES:
            ok, claims = res[name]
            report.passed[name] += int(np.sum(ok & claims))
            fails = np.flatnonzero(~ok & claims)
            report.failed[name] += len(fails)
            # blocks come in sample order and properties in report order:
            # only a strictly earlier sample replaces the kept failure
            if len(fails) and (report.first_failure is None
                               or start + fails[0] < report.first_failure[1]):
                # the counterexample is the matrix the check evaluates:
                # m_in for domination and agreement, m1 for the others
                M = block["m_in" if name in ("domination", "agreement") else "m1"]
                report.first_failure = (name, start + int(fails[0]), M[fails[0]])
        ratios.append(res["gap_ratio"][np.isfinite(res["gap_ratio"])])
    ratios = np.concatenate(ratios) if ratios else np.empty(0)
    if ratios.size:
        report.gap_ratio_min = float(np.min(ratios))
        report.gap_ratio_max = float(np.max(ratios))
    return report
