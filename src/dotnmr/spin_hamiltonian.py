"""Nuclear-spin (1/2) x electron-spin Hamiltonian and the switchable resonance.

Within one orbital multiplet the spin sector is governed by (MHz units)

    H = A [ (I+ S- + I- S+) + 2 Iz Sz ] - gamma_n B Iz + gamma_e B Sz,

with the flip-flop ladder part driving nuclear-electron exchange and the
Iz Sz part shifting levels statically.  Total projection F_z = Iz + Sz is
conserved, so the triplet-sector matrix is block diagonal per F_z.

The observable nuclear resonance is the transition in which only the nucleus
flips: from the stretched state |-;1,-1> to the F_z = -1/2 eigenstate
|Psi> = c1 |+;1,-1> + c2 |-;1,0>.  Its frequency has the closed form

    f = 3A/2 + (gamma_n - gamma_e) B / 2
        + sqrt( (A + (gamma_n + gamma_e) B)^2 + 8 A^2 ) / 2,

which nmr_numeric must reproduce from the full 6x6 diagonalization.  The
numeric route deliberately ignores the F_z blocks: it is the independent
check of the closed form, which is derived from them.

The labeled basis is built per call.  Only the three operator matrices over
it (the coupling I+ S- + I- S+ + 2 Iz Sz, Iz and Sz) are cached, built once
per S and kept read-only, so build_spin_matrix only scales them by A,
gamma_n B and gamma_e B and returns the bare real symmetric array, its rows
and columns in spin_basis(S) order.  A resonance then pays for that
assembly, one hermitian_eig (mostly numpy's fixed cost per operation around
a ~2 us LAPACK solve; see numerics) and a selection and a sign on Python
floats.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .config import (
    DotConfig,
    b_field_from_ratio,
    nuclear_larmor_mhz,
    require_finite_non_negative,
    sqrt,
    where,
)
from .errors import DegenerateSelectionError
from .hyperfine import coupling_a
from .numerics import hermitian_eig
from .spectrum import ground_state_at, spin_for_m

OVERLAP_DEGENERACY_TOL = 1e-12


class SpinBasisLabel(NamedTuple):
    """One product state |i_z; S, S_z> of nucleus and electron pair."""

    i_z: float      # +0.5 or -0.5
    s_total: int    # 0 or 1
    s_z: int        # in [-s_total, s_total]

    @property
    def f_z(self) -> float:
        return self.i_z + self.s_z


class NmrResult(NamedTuple):
    """Numeric resonance next to its closed form and the mixing amplitudes."""

    f_nmr: float     # E(|-;1,-1>) - E(|Psi>), MHz
    f_closed: float  # closed-form value, MHz
    c1: float        # <+;1,-1|Psi>
    c2: float        # <-;1,0|Psi>
    f0: float        # bare Larmor gamma_n * B, MHz


def spin_basis(s_total: int) -> tuple[SpinBasisLabel, ...]:
    """Basis ordered by descending F_z, then descending i_z, for S = 0 or 1 (built per call)."""
    if s_total not in (0, 1):
        raise ValueError(f"s_total must be 0 or 1, got {s_total}")
    labels = [
        SpinBasisLabel(iz, s_total, sz)
        for iz in (0.5, -0.5)
        for sz in range(s_total, -s_total - 1, -1)
    ]
    labels.sort(key=lambda lb: (-lb.f_z, -lb.i_z))
    return tuple(labels)


def _raise_coeff(s: float, m: float) -> float:
    """<s, m+1 | S+ | s, m> = sqrt(s(s+1) - m(m+1))."""
    return math.sqrt(s * (s + 1.0) - m * (m + 1.0))


@functools.cache
def _spin_operators(s_total: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (I+ S- + I- S+ + 2 Iz Sz, Iz, Sz) over spin_basis(S)."""
    labels = spin_basis(s_total)
    i_z = np.array([lb.i_z for lb in labels])
    s_z = np.array([lb.s_z for lb in labels], dtype=float)
    coupling = np.diag(2.0 * i_z * s_z)
    for i, li in enumerate(labels):
        for j, lj in enumerate(labels):
            # I+ S- : i_z up by 1, s_z down by 1 (and the conjugate I- S+)
            if li.i_z == lj.i_z + 1.0 and li.s_z == lj.s_z - 1:
                coupling[i, j] = coupling[j, i] = (
                    _raise_coeff(0.5, lj.i_z) * _raise_coeff(s_total, li.s_z)
                )
    ops = (coupling, np.diag(i_z), np.diag(s_z))
    for op in ops:
        op.flags.writeable = False
    return ops


def build_spin_matrix(
    a_mhz: float, b_tesla: float, cfg: DotConfig, s_total: int
) -> np.ndarray:
    """The real symmetric spin Hamiltonian in MHz, rows and columns over spin_basis(S).

    Triplet: full 6x6 with the flip-flop and Iz Sz terms.  Singlet electrons
    are uncoupled, leaving a 2x2 nuclear Zeeman matrix.  Any other S fails in spin_basis.
    """
    require_finite_non_negative("a_mhz", a_mhz)
    require_finite_non_negative("b_tesla", b_tesla)
    coupling, i_z, s_z = _spin_operators(s_total)
    h = a_mhz * coupling  # then in place, in the order of a C - gn b Iz + ge b Sz
    h -= cfg.gamma_n * b_tesla * i_z
    h += cfg.gamma_e * b_tesla * s_z
    return h


# s * s is a normal float from here up (2^-1022 = 2.2e-308)
_S_SQUARE_MIN = 2.0**-511


def nmr_closed_form(a_mhz, b_tesla, cfg: DotConfig):
    """Closed-form nuclear resonance of the triplet sector, MHz (floats or arrays).

    A float gets a Python float, the bits of the array call's entry (config.sqrt and
    config.where).  The root squares s = A + (gamma_n + gamma_e) B, so f holds where s * s
    is a normal float: above, s * s overflows and f is inf or NaN; below s = 2^-511
    (~1.5e-154 MHz), where s * s would keep few or none of its digits (with A = 0 it
    gave f = (gamma_n - gamma_e) B / 2, not gamma_n B), f is NaN, so that every caller
    reports it, naming x.  s = 0 (A = B = 0) gives f = 0 exactly.
    """
    require_finite_non_negative("a_mhz", a_mhz)
    require_finite_non_negative("b_tesla", b_tesla)
    gn = cfg.gamma_n
    ge = cfg.gamma_e
    s = a_mhz + (gn + ge) * b_tesla
    f = 1.5 * a_mhz + 0.5 * (gn - ge) * b_tesla + 0.5 * sqrt(s * s + 8.0 * a_mhz * a_mhz)
    return where((0.0 < s) & (s < _S_SQUARE_MIN), math.nan, f)


# rows of |+;1,-1>, |-;1,0> and the stretched |-;1,-1> in spin_basis(1)
_I_FLIP, _I_KEEP, _I_STRETCHED = (
    spin_basis(1).index(label)
    for label in ((0.5, 1, -1), (-0.5, 1, 0), (-0.5, 1, -1))
)


def nmr_numeric(a_mhz: float, b_tesla: float, cfg: DotConfig) -> NmrResult:
    """Resonance from the 6x6 diagonalization; must match the closed form.

    |Psi> is picked inside the F_z = -1/2 block by maximal overlap with
    |+;1,-1> rather than by eigenvalue order, which stays robust down to
    B -> 0 where the ordering flips.  The stretched state is the eigenvector
    with the largest weight on |-;1,-1>.  The matrix is real, so the
    eigenvectors and both mixing amplitudes are real.  The selection runs on
    Python floats: the F_z = -1/2 pair is the last two of a stable sort by
    weight on |+;1,-1> and |-;1,0>, and ties for the stretched state go to
    the first eigenvector.  The eigenvalues are read once, as floats.

    hermitian_eig leaves each eigenvector's sign to LAPACK, and the selection
    reads only squares, so c1 and c2 are the one place a sign shows.  |Psi>
    takes the sign of its first entry of largest magnitude in basis order,
    which fixes the signs nmr prints whatever LAPACK returned.  The rule lives
    here because these two amplitudes are its only reader: signing the one
    column reported costs less than a pass over every column in hermitian_eig.
    """
    values, vectors = hermitian_eig(build_spin_matrix(a_mhz, b_tesla, cfg, s_total=1))
    rows = vectors.tolist()
    flip, keep, stretched = rows[_I_FLIP], rows[_I_KEEP], rows[_I_STRETCHED]
    pair = [f * f + k * k for f, k in zip(flip, keep)]
    i, j = sorted(range(len(pair)), key=pair.__getitem__)[-2:]
    o_i, o_j = flip[i] * flip[i], flip[j] * flip[j]
    if abs(o_i - o_j) <= OVERLAP_DEGENERACY_TOL:
        raise DegenerateSelectionError(
            "the two F_z = -1/2 eigenstates have equal overlap with |+;1,-1>; "
            "cannot select the resonance partner"
        )
    j_psi = i if o_i > o_j else j
    low = [v * v for v in stretched]
    j_low = low.index(max(low))
    c1, c2 = flip[j_psi], keep[j_psi]
    if max((row[j_psi] for row in rows), key=abs) < 0.0:
        c1, c2 = -c1, -c2

    energies = values.tolist()
    return NmrResult(
        f_nmr=energies[j_low] - energies[j_psi],
        f_closed=nmr_closed_form(a_mhz, b_tesla, cfg),
        c1=c1,
        c2=c2,
        f0=nuclear_larmor_mhz(cfg, b_tesla),
    )


def relative_shift(cfg: DotConfig, x: float, ir_excited: bool = False) -> float:
    """Closed-form relative shift (f - f0)/f0 at ratio x; exactly 0 for singlets where f0 > 0.

    One pass of _resonance_chain on the float x and its ground |m|.  Raises
    FloatingPointError naming x, as run_sweep does, when the shift is not finite, as it is
    wherever f0 = gamma_n B has underflowed to 0.  Its absolute error reaches ~6.7e-13
    (see _resonance_chain), so a shift of 1e-6 has about 6 true digits.
    """
    if not x > 0:
        raise ValueError(f"x must be > 0 (f0 vanishes at B=0), got {x}")
    x = float(x)  # so the chain runs on Python floats, which never warn
    shift = _resonance_chain(cfg, x, ground_state_at(cfg, x).m_abs, ir_excited)[-1]
    if not math.isfinite(shift):
        raise FloatingPointError(f"relative shift is not finite at x = {x}")
    return shift


def _resonance_chain(cfg: DotConfig, x, m_abs, *ir_modes: bool):
    """B and f0, then A, f and (f - f0)/f0 for each IR mode in ir_modes, at x and ground |m|.

    x and |m| are a float and an int, giving Python floats, or 1-D arrays of one length,
    giving one entry per row; an entry equals the float call's value bitwise.  f0 =
    gamma_n B and A is coupling_a's, exactly 0 for a singlet.  f is nmr_closed_form's
    where spin_for_m(|m|) marks a triplet and f0 itself on a singlet, so a singlet's shift
    is exactly +0.0 where f0 > 0 and NaN where f0 has underflowed to 0.  On an |m| array
    the closed form runs on every row (b_field_from_ratio has refused an infinite B), and
    its guards keep a negative A from an unvalidated config out; on one |m| it runs only
    for a triplet.  The caller reports a shift that is not finite, naming x, and runs an
    array call under np.errstate; on floats nothing warns, as the one numpy division, by a
    zero f0, runs under its own.  Several modes in one call (sweep_row's two) share B and
    f0.  That float route, with its owners' (config.largest, sqrt and where, the bisect of
    spectrum._window_label, hyperfine.delta_m's table read), took relative_shift(DotConfig(),
    2.5, True) ~21 -> ~5.6 us and at x = 0.2 ~24 -> ~3.9 us (timeit min, alternated
    processes; PR-20 tree 9.3-13.6 and 3.9-4.7 us), and device-scan work_per_ref 0.0848 ->
    0.0936 (+10.4 %, better in 9/10 alternated 30 s pairs of bench/run.py, parent IQR
    0.0048, 2-vCPU VM).

    f sums terms of size gamma_e B / 2, so the shift's absolute error reaches about
    1.15 eps gamma_e/gamma_n (~6.7e-13 for the default nuclei) whatever its size: a shift
    of 1e-6 has about 6 true digits of the 9 printed.  The form without cancellation,
    f - f0 = 2A + 4A^2/(sqrt(s^2 + 8A^2) + s) with s = A + (gamma_n + gamma_e) B, would
    move digits of the 100k-row golden sweep, so the tests hold it as a reference only.
    """
    b = b_field_from_ratio(cfg, x)
    f0 = nuclear_larmor_mhz(cfg, b)
    triplet = spin_for_m(m_abs)
    chain = [b, f0]
    for ir_excited in ir_modes:
        a = coupling_a(cfg, x, m_abs, ir_excited=ir_excited)
        if isinstance(triplet, np.ndarray):
            f = np.where(triplet, nmr_closed_form(a, b, cfg), f0)
        else:  # one |m|: the closed form only if it is a triplet's
            f = nmr_closed_form(a, b, cfg) if triplet else f0
        if isinstance(f0, np.ndarray) or f0:
            shift = (f - f0) / f0
        else:  # Python's division raises on a zero f0, where numpy's gives NaN or +-inf
            with np.errstate(divide="ignore", invalid="ignore"):  # the caller reports it
                shift = float(np.divide(f - f0, f0))
        chain += [a, f, shift]
    return chain
