"""Weierstrass elliptic functions for real invariants (g2, g3).

One kernel serves every lattice: the Fourier series in the nome
q = exp(i pi tau), tau = omega3/omega1, of a basis (omega1, omega3) with
Im tau > 0 (``NomeSeries``).  With k = pi/(2 omega1), u = k z and
c_n = q^(2n)/(1 - q^(2n)), DLMF 23.8.1-23.8.2 and 23.6.9 give

    p     = -eta1/omega1 + k^2 (csc^2 u - 8 sum n c_n cos 2nu),
    zeta  = eta1 z/omega1 + k (cot u + 4 sum c_n sin 2nu),
    sigma = k^-1 exp(eta1 z^2/(2 omega1))
            sum (-1)^n q^(n(n+1)) sin (2n+1)u / sum (-1)^n (2n+1) q^(n(n+1)),

and p' by differentiation.  A point is first reduced into the centred
cell of the basis, where |Im u| <= pi Im tau/2 bounds the growth
e^(2n|Im u|) of the n-th term by |q|^(-n); each sum stops where a bound on
its omitted tail falls below the unit roundoff in units of its leading
term.  Values outside the cell follow from periodicity of p, p' and the
quasi-periodicity of zeta and sigma.

The basis:
- A rectangular lattice (positive discriminant) uses (omega, omega') of
  A&S 18.9, with q = exp(-pi |omega'|/omega) real.  On the real axis its
  sums take one (sin u, cos u) pair and a fixed list of terms (``at``):
  q <= 0.07 on most lattices of bounded motion, so under ten.  Its half
  periods and eta come from K and E in closed form.
- A rhombic lattice (negative discriminant) keeps its half periods from
  Carlson R_F at the conjugate pair and evaluates on their
  Lagrange-reduced basis, where Im tau >= sqrt(3)/2 and so
  |q| <= exp(-pi sqrt(3)/2) = 0.066.  eta1 is the series' constant term,
  eta1 = omega1 k^2 (1/3 - 8 sum n c_n), and eta3 follows from the
  Legendre relation eta1 omega3 - eta3 omega1 = i pi/2.  The eta of any
  half period is the same integer combination of eta1 and eta3 as the
  half period is of omega1 and omega3.

So the Legendre relation and p(omega_k) = e_k hold by construction, and
no kernel call is made to build a lattice.  The series take omega and eta
as they are, so they inherit their error from the roots e_i and their
differences (``GRoots``): a lattice of the dynamics takes both from the
roots of f (``propagation.lattice_frame``), ``Lattice.from_invariants``
from the rounded invariants (``g_roots``).  Conventions follow A&S ch. 18:
omega1 = omega, omega2 = omega + omega', omega3 = omega', p(omega_k) = e_k,
with the roots e1, e2, e3 ordered by descending imaginary then real part.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

from .cubic import solve_cubic
from .elliptic import carlson_rf, elliptic_K_tail, elliptic_KE
from .errors import (
    DegenerateLatticeError,
    PoleProximityError,
    WpInverseError,
)

_UNIT_ROUNDOFF = 2.0**-53   # truncation target of the series
_POLE_GUARD = 1e-12         # |z - lattice point| below which p, p' and zeta raise
_LAST_STEP = 16 * _UNIT_ROUNDOFF   # reach of the Newton step that refines an R_F seed


@dataclass(frozen=True)
class Invariants:
    """Real lattice invariants; the cubic is 4 s^3 - g2 s - g3."""

    g2: float
    g3: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.g2) and math.isfinite(self.g3)):
            raise ValueError("invariants must be finite")

    @property
    def discriminant(self) -> float:
        return self.g2**3 - 27.0 * self.g3**2

    def is_degenerate(self) -> bool:
        scale = max(abs(self.g2) ** 3, 27.0 * self.g3**2, 1e-300)
        return abs(self.discriminant) <= 1e-14 * scale


@dataclass(frozen=True)
class GRoots:
    """Roots of 4 s^3 - g2 s - g3, descending (Im, Re), with ``gaps`` =
    (e1 - e2, e1 - e3, e2 - e3), often known to more digits than the roots."""

    e_tilde: tuple[complex, complex, complex]
    gaps: tuple[complex, complex, complex]

    @property
    def discriminant(self) -> float:
        """g2^3 - 27 g3^2 = 16 ((e1 - e2)(e1 - e3)(e2 - e3))^2."""
        g12, g13, g23 = self.gaps
        return (16.0 * (g12 * g13 * g23) ** 2).real


@dataclass(frozen=True)
class HalfPeriods:
    """Half-period data of the lattice generated by (2 omega, 2 omega')."""

    omega: complex
    omega_prime: complex
    eta: complex          # zeta(omega)
    eta_prime: complex    # zeta(omega')

    def omega_k(self, k: int) -> complex:
        return self._pick(k, self.omega, self.omega_prime)

    def eta_k(self, k: int) -> complex:
        """zeta(omega_k)."""
        return self._pick(k, self.eta, self.eta_prime)

    @staticmethod
    def _pick(k: int, first: complex, third: complex) -> complex:
        # omega_2 = omega_1 + omega_3, and likewise for eta
        if k not in (1, 2, 3):
            raise ValueError(f"half-period index must be 1, 2 or 3, got {k}")
        return (first, first + third, third)[k - 1]


def g_roots(inv: Invariants) -> GRoots:
    """Ordered roots of the lattice cubic 4 s^3 - g2 s - g3."""
    if inv.is_degenerate():
        raise DegenerateLatticeError(
            f"g2^3 - 27 g3^2 = {inv.discriminant:.3e} vanishes; "
            "the lattice degenerates (alpha = 0 / double-root boundary)"
        )
    e1, e2, e3 = solve_cubic(4.0, 0.0, -inv.g2, -inv.g3)
    return GRoots(e_tilde=(e1, e2, e3), gaps=(e1 - e2, e1 - e3, e2 - e3))


class Lattice:
    """Immutable evaluation context for the lattice of one set of roots.

    Construction computes the half-periods, the eta values and the nome
    series of the kernel basis from the roots and their differences
    (module docstring): ``basis`` holds omega1, omega3, eta1 and eta3 of
    that basis, which is ``periods`` itself on a rectangular lattice.  All
    evaluation methods are pure.
    """

    def __init__(self, roots: GRoots) -> None:
        self.roots = roots
        self.rectangular = roots.discriminant > 0.0
        if self.rectangular:
            self._rectangular_periods()
        else:
            self._rhombic_periods()

    @classmethod
    def from_invariants(cls, g2: float, g3: float) -> "Lattice":
        """The lattice of invariants (g2, g3), its roots from ``g_roots``."""
        return cls(g_roots(Invariants(g2, g3)))

    # -- construction ----------------------------------------------------

    def _rectangular_periods(self) -> None:
        """Half periods, eta values and series of three real roots e1 > e2 > e3.

        With d = e1 - e3, m = (e2 - e3)/d and m1 = (e1 - e2)/d, each from
        its own root difference so that neither loses digits as 1 - the
        other, A&S 18.9 gives omega = K(m)/sqrt(d), omega' = i K(m1)/sqrt(d),

            eta  = sqrt(d) E(m) - e1 omega,
            eta' = -i (sqrt(d) E(m1) + e3 |omega'|).

        Then eta omega' - eta' omega = i (E K' + E' K - K K') = i pi/2 is
        Legendre's relation for K and E, and p(omega_k) = e_k holds by
        construction, so neither needs a check here.  ``tail``, of order
        m^2 in E = K ((1 + m1)/2 - tail), serves ``SolutionContext.add_epoch``.
        Either of m and m1 may round to 1 while the other stays positive.
        """
        e1, _, e3 = (z.real for z in self.roots.e_tilde)
        g12, d, g23 = (g.real for g in self.roots.gaps)
        m, m1 = g23 / d, g12 / d
        if not (m > 0.0 and m1 > 0.0):
            raise DegenerateLatticeError(
                f"double root of the lattice cubic (m = {m!r}, m1 = {m1!r})"
            )
        s = math.sqrt(d)
        big_k, self.tail = elliptic_K_tail(m, m1)
        big_e = big_k * (0.5 * (1.0 + m1) - self.tail)
        big_k1, big_e1 = elliptic_KE(m1, m)
        omega, omega_i = big_k / s, big_k1 / s
        eta = s * big_e - e1 * omega
        self.periods = self.basis = HalfPeriods(
            omega=complex(omega, 0.0), omega_prime=complex(0.0, omega_i),
            eta=complex(eta, 0.0), eta_prime=complex(0.0, -(s * big_e1 + e3 * omega_i)))
        self.nome_series = NomeSeries(math.pi / (2.0 * omega),
                                      math.exp(-math.pi * omega_i / omega), eta / omega)

    def _rhombic_periods(self) -> None:
        """Half periods from R_F at the conjugate pair; eta from the series.

        e2 is real and e1, e3 a conjugate pair.  The real half period
        w_r = R_F(0, e2 - e1, e2 - e3) comes from the real root for
        (g2, g3); the imaginary one w_i is the same object for (g2, -g3),
        by p(iz; g2, -g3) = -p(z; g2, g3) (``_rf_zero_pair``).
        omega = (w_r - i w_i)/2 is the half period with p(omega) = e1, and
        omega' = conj(omega) puts Im(omega'/omega) > 0, so omega + omega'
        = w_r.  The series of the reduced basis give eta1, Legendre's
        relation eta3, and each of eta, eta' is the combination of the two
        that its half period is of the basis.  The series give the p of
        roots that sum to 0; adding their mean s as given makes p(omega_k)
        = e_k, as on a rectangular lattice.
        """
        g12 = self.roots.gaps[0]          # e1 - e2
        w_r, w_i = _rf_zero_pair(-g12), _rf_zero_pair(g12)
        omega = 0.5 * complex(w_r, -w_i)
        omega_p = omega.conjugate()
        b1, b3 = _reduced_basis(omega, omega_p)
        k = math.pi / (2.0 * b1)
        series = NomeSeries(k, cmath.exp(1j * math.pi * b3 / b1))
        series.eta_over_omega -= sum(self.roots.e_tilde).real / 3.0
        eta1 = series.eta_over_omega * b1
        eta3 = (eta1 * b3 - 0.5j * math.pi) / b1
        self.basis = HalfPeriods(omega=b1, omega_prime=b3, eta=eta1, eta_prime=eta3)
        self.nome_series = series

        def eta_of(w: complex) -> complex:
            x, y = _coordinates(w, b1, b3)
            return round(x) * eta1 + round(y) * eta3

        self.periods = HalfPeriods(omega=omega, omega_prime=omega_p,
                                   eta=eta_of(omega), eta_prime=eta_of(omega_p))

    @cached_property
    def real_half_period(self) -> float:
        """Half the real period of p: omega (rectangular) or omega + omega' (rhombic)."""
        return self.periods.omega_k(1 if self.rectangular else 2).real

    # -- reduction ---------------------------------------------------------

    def reduce(self, z: complex) -> tuple[complex, int, int]:
        """(z_c, m, n) with z = z_c + 2 m omega1 + 2 n omega3, z_c in the centred cell.

        The cell is that of the kernel basis (``basis``), where the series
        converge as the module docstring bounds.
        """
        w1, w3 = 2.0 * self.basis.omega, 2.0 * self.basis.omega_prime
        x, y = _coordinates(z, w1, w3)
        m = math.floor(x + 0.5)
        n = math.floor(y + 0.5)
        return z - m * w1 - n * w3, m, n

    # -- public evaluation -------------------------------------------------

    def _values(self, z: complex) -> tuple[complex, complex, complex]:
        """(p, p', zeta) at arbitrary z."""
        zr, m, n = self.reduce(complex(z))
        if abs(zr) < _POLE_GUARD:
            raise PoleProximityError(
                f"|z - lattice| = {abs(zr):.2e} below pole guard {_POLE_GUARD:.1e}"
            )
        p, pp, zt = self.nome_series.at_complex(zr)
        if m or n:
            zt += 2.0 * (m * self.basis.eta + n * self.basis.eta_prime)
        return p, pp, zt

    def wp_all(self, z: complex) -> tuple[complex, complex, complex, complex]:
        """(p, p', zeta, sigma) at arbitrary z via quasi-periodic extension."""
        return (*self._values(z), self.sigma(z))

    def wp_real(self, x: float) -> tuple[float, float, float]:
        """(p, p', zeta) at real x, all three real.

        A rectangular lattice sums its real-axis series (``NomeSeries.at``);
        a rhombic one reduces x into the cell of its basis, off the real
        axis, and takes the real parts.
        """
        if self.rectangular:
            return self.nome_series.at(x)
        p, pp, zt = self._values(x)
        return p.real, pp.real, zt.real

    def wp(self, z: complex) -> complex:
        return self._values(z)[0]

    def zeta(self, z: complex) -> complex:
        return self._values(z)[2]

    def sigma(self, z: complex) -> complex:
        zr, m, n = self.reduce(complex(z))
        sg = self.nome_series.sigma(zr)
        if m or n:
            b = self.basis
            eta_mn = 2.0 * (m * b.eta + n * b.eta_prime)
            sign = -1.0 if (m + n + m * n) % 2 else 1.0
            sg *= sign * cmath.exp(eta_mn * (zr + m * b.omega + n * b.omega_prime))
        return sg

    # -- inversion ----------------------------------------------------------

    def wp_inverse_real(self, w: float, gaps: tuple) -> float:
        """x in [0, w_r] with p(x) = w >= e_k, w_r the real half period.

        e_k is e1 on a rectangular lattice and e2, the real root, on a
        rhombic one; p falls from +inf at 0 to e_k at w_r.  ``gaps`` are
        w - e_i for i = 1, 2, 3, which a caller can often form with less
        cancellation than the subtraction: real ones, or on a rhombic lattice
        a conjugate pair and a real one.  A real gap a rounding below 0
        counts as 0 (w = e_k, x = w_r).  R_F of the gaps is x (DLMF 19.25),
        real as its arguments are closed under conjugation, and one Newton
        step on ``wp_real`` refines it (``_refine_seed``).
        """
        w_r = self.real_half_period
        seed = carlson_rf(*self._clamped(gaps)).real
        x = abs(self._refine_seed(seed, w, self.wp_real)[0])
        return 2.0 * w_r - x if x > w_r else x   # p is even, symmetric about w_r

    def wp_inverse_imaginary(self, w: float, gaps: tuple
                             ) -> tuple[complex, tuple[complex, complex, complex]]:
        """(v, (p, p', zeta) at v) with p(v) = w on the imaginary axis.

        w <= e3 on a rectangular lattice, w <= e2 on a rhombic one, and
        ``gaps`` are e_i - w for i = 1, 2, 3, formed by the caller as for
        ``wp_inverse_real``.  p(iy; g2, g3) = -p(y; g2, -g3) makes y =
        R_F(gaps) the point of (0, h] with p(iy) = w, where ih is the first
        half period up the axis: omega' on a rectangular lattice, omega' -
        omega on a rhombic one.  There p'(iy) = -i dp(iy)/dy lies on the -i
        branch, and its mirror v = 2 omega' - iy on the +i branch: Re v = 0
        and h <= Im v < 2h on a rectangular lattice, Re v = w_r and
        0 <= Im v < h on a rhombic one.  One Newton step on the nome series
        at -iy (``_values``) refines y (``_refine_seed``); the values at v
        are those at -iy with 2 eta' added to zeta.
        """
        per = self.periods
        half = (per.omega_prime if self.rectangular else per.omega_prime - per.omega).imag
        seed = complex(0.0, -carlson_rf(*self._clamped(gaps)).real)
        v_c, values = self._refine_seed(seed, w, self._values)
        y = abs(v_c.imag)
        if y > half:               # a step past ih lands on the mirror point
            y = 2.0 * half - y
        if v_c != complex(0.0, -y):
            v_c = complex(0.0, -y)
            values = self._values(v_c)
        p, pp, zt = values
        return 2.0 * per.omega_prime - complex(0.0, y), (p, pp, zt + 2.0 * per.eta_prime)

    def _clamped(self, gaps: tuple) -> tuple:
        """The real gaps with one a rounding below 0 taken as 0.

        All three are real on a rectangular lattice; on a rhombic one only
        the gap at e2, the real root.  Two zero gaps put w on a double root
        of the lattice cubic, where R_F diverges: DegenerateLatticeError.
        """
        a, b, c = gaps
        if self.rectangular:
            a, c = max(a, 0.0), max(c, 0.0)
        clamped = a, max(b, 0.0), c
        if clamped.count(0.0) > 1:
            raise DegenerateLatticeError(
                f"p^-1 at a double root of the lattice cubic (gaps {gaps!r})")
        return clamped

    def _refine_seed(self, z, w, evaluate) -> tuple:
        """(z, (p, p', zeta) at z) for the R_F seed z of p(z) = w.

        ``evaluate`` returns (p, p', zeta).  The seed is exact up to the
        rounding of R_F and of the series: its residual |p(z) - w| was at
        most 1.2e-15 (1 + |w|) over 606 inversions on 304 seeded bounded,
        unbounded and rhombic states.  WpInverseError when it exceeds
        1e-11 (1 + |w|).  Otherwise one Newton step from the same
        evaluation refines z, with zeta moved by zeta' = -p, if it is within
        a few ulps of z (up to 8e-15 of the angle advance per period on the
        anchors, 3e-15 after); a larger step, next to a critical point of p,
        would chase rounding divided by a small p'.
        """
        values = evaluate(z)
        p, pp, zt = values
        if abs(p - w) > 1e-11 * (1.0 + abs(w)):
            raise WpInverseError(f"inversion failed for w={w!r}")
        step = (w - p) / pp if pp else 0.0
        if 0.0 < abs(step) <= _LAST_STEP * abs(z):
            return z + step, (w, pp, zt - p * step)
        return z, values


class NomeSeries:
    """p, p', zeta and sigma of one lattice basis from its nome series.

    With k = pi/(2 omega1), u = k z, the nome q = exp(i pi omega3/omega1)
    and c_n = q^(2n)/(1 - q^(2n)), DLMF 23.8.1-23.8.2 give

        p     = -eta/omega + k^2 (csc^2 u - 8 sum n c_n cos 2nu),
        p'    = k^3 (-2 cos u/sin^3 u + 16 sum n^2 c_n sin 2nu),
        zeta  = eta z/omega + k (cot u + 4 sum c_n sin 2nu),

    eta/omega = eta1/omega1 = k^2 (1/3 - 8 sum n c_n), and DLMF 23.6.9 the
    theta_1 form of sigma (``sigma``).  k, q and eta/omega are real on a
    rectangular lattice and complex on a rhombic one.  sin u and cos u are
    taken directly, since csc^2 u from 1 - cos 2u would lose digits near
    the pole, and the sines and cosines of multiples of u follow by angle
    addition.

    On the real axis of a rectangular lattice (``at``) the sums stop
    before the first n with 16 n^2 c_n <= 2^-53 (1 - q).  From that n on,
    successive terms shrink by at most ((n+1)/n)^2 q^2, and that is below
    q at the stopping index for every q < 0.98 (q = 0.41 on the bounded
    near-escape states of the benchmark).  So the omitted tail of each sum
    is below the unit roundoff in units of k^2, k^3 and k, the sizes of
    the leading terms csc^2 u >= 1, the cube and the cotangent.  The same
    list of terms gives eta/omega when it is not known in closed form.
    """

    __slots__ = ("k", "nome", "eta_over_omega", "terms", "theta1_prime")

    def __init__(self, k: complex, nome: complex,
                 eta_over_omega: complex | None = None) -> None:
        q2 = nome * nome
        bound = _UNIT_ROUNDOFF * (1.0 - abs(nome))
        terms = []
        n, q2n = 1, q2
        while True:
            c = q2n / (1.0 - q2n)
            if 16.0 * n * n * abs(c) <= bound:
                break
            terms.append((8.0 * n * c, 16.0 * n * n * c, 4.0 * c))
            n, q2n = n + 1, q2n * q2
        if eta_over_omega is None:
            eta_over_omega = k * k * (1.0 / 3.0 - sum(a for a, _, _ in reversed(terms)))
        # theta_1'(0) / (2 q^(1/4)) = sum (-1)^n (2n+1) q^(n(n+1)), n >= 0
        norm, n, qn, q2n = 1.0, 1, q2, q2
        while (2 * n + 1) * abs(qn) > _UNIT_ROUNDOFF:
            norm += (-1) ** n * (2 * n + 1) * qn
            n, q2n = n + 1, q2n * q2
            qn *= q2n
        self.k = k
        self.nome = nome
        self.eta_over_omega = eta_over_omega
        self.terms = tuple(terms)   # (8 n c_n, 16 n^2 c_n, 4 c_n), n = 1, 2, ...
        self.theta1_prime = norm

    def at(self, x: float) -> tuple[float, float, float]:
        """(p, p', zeta) at real x on a rectangular lattice."""
        k = self.k
        u = k * x
        s, c = math.sin(u), math.cos(u)
        if abs(s) < k * _POLE_GUARD:
            raise PoleProximityError(f"real argument {x!r} at a lattice point")
        s2, c2 = 2.0 * s * c, (c - s) * (c + s)
        sn, cn = s2, c2
        sp = spp = szt = 0.0
        for a, b, d in self.terms:
            sp += a * cn
            spp += b * sn
            szt += d * sn
            sn, cn = sn * c2 + cn * s2, cn * c2 - sn * s2
        inv_s = 1.0 / s
        csc2 = inv_s * inv_s
        kk = k * k
        p = kk * (csc2 - sp) - self.eta_over_omega
        pp = kk * k * (spp - 2.0 * c * inv_s * csc2)
        zt = self.eta_over_omega * x + k * (c * inv_s + szt)
        return p, pp, zt

    def at_complex(self, z: complex) -> tuple[complex, complex, complex]:
        """(p, p', zeta) at z in the centred cell of the basis.

        The same series off the real axis: sin 2nu and cos 2nu grow like
        e^(2n|Im u|), so the n-th term of the p' sum is at most
        B_n = 16 n^2 |c_n| e^(2n|Im u|), and B_(n+1)/B_n <= r_n =
        ((n+1)/n)^2 |q|^2 e^(2|Im u|), which falls with n.  In the cell
        |Im u| <= pi Im(omega3/omega1)/2 makes e^(2|Im u|) <= 1/|q|, so
        r_n <= 4|q|.  The sums stop before the first n with r_n < 1 and
        B_n <= 2^-53 (1 - r_n), so the omitted tail of each is below the
        unit roundoff in units of |k|^2, |k|^3 and |k|.
        """
        k = self.k
        u = k * z
        s, c = cmath.sin(u), cmath.cos(u)
        if abs(s) < abs(k) * _POLE_GUARD:
            raise PoleProximityError(f"argument {z!r} at a lattice point")
        s2, c2 = 2.0 * s * c, (c - s) * (c + s)
        q2 = self.nome * self.nome
        spread = math.exp(2.0 * abs(u.imag))
        step = abs(q2) * spread
        sn, cn = s2, c2
        sp = spp = szt = 0j
        n, q2n, grow = 1, q2, spread
        while True:
            cq = q2n / (1.0 - q2n)
            bound = 16.0 * n * n * abs(cq) * grow
            ratio = ((n + 1) / n) ** 2 * step
            if ratio < 1.0 and bound <= _UNIT_ROUNDOFF * (1.0 - ratio):
                break
            sp += 8.0 * n * cq * cn
            spp += 16.0 * n * n * cq * sn
            szt += 4.0 * cq * sn
            sn, cn = sn * c2 + cn * s2, cn * c2 - sn * s2
            n, q2n, grow = n + 1, q2n * q2, grow * spread
        inv_s = 1.0 / s
        csc2 = inv_s * inv_s
        kk = k * k
        p = kk * (csc2 - sp) - self.eta_over_omega
        pp = kk * k * (spp - 2.0 * c * inv_s * csc2)
        zt = self.eta_over_omega * z + k * (c * inv_s + szt)
        return p, pp, zt

    def sigma(self, z: complex) -> complex:
        """sigma(z) at z in the centred cell (DLMF 23.6.9, 20.2.1).

        sigma = exp(eta z^2/(2 omega)) T(u)/(k T'(0)) with
        T(u) = sum (-1)^n q^(n(n+1)) sin (2n+1)u, theta_1 without its
        factor 2 q^(1/4).  |sin (2n+1)u| <= (2n+1) e^(2n|Im u|) |sin u|, so
        the n-th term is at most A_n = (2n+1) |q|^(n(n+1)) e^(2n|Im u|) in
        units of the leading sin u, and A_(n+1)/A_n <= s_n =
        (2n+3)/(2n+1) |q|^(2n+2) e^(2|Im u|), which falls with n.  The sum
        stops before the first n with s_n < 1 and A_n <= 2^-53 (1 - s_n).
        """
        k = self.k
        u = k * z
        s, c = cmath.sin(u), cmath.cos(u)
        s2, c2 = 2.0 * s * c, (c - s) * (c + s)
        q2 = self.nome * self.nome
        spread = math.exp(2.0 * abs(u.imag))
        acc, sn, cn = s, s, c
        n, qn, q2n, grow = 1, q2, q2, spread
        while True:
            bound = (2 * n + 1) * abs(qn) * grow
            ratio = (2 * n + 3) / (2 * n + 1) * abs(q2n * q2) * spread
            if ratio < 1.0 and bound <= _UNIT_ROUNDOFF * (1.0 - ratio):
                break
            sn, cn = sn * c2 + cn * s2, cn * c2 - sn * s2
            acc += qn * sn if n % 2 == 0 else -qn * sn
            n, q2n, grow = n + 1, q2n * q2, grow * spread
            qn *= q2n
        return cmath.exp(0.5 * self.eta_over_omega * z * z) * acc / (k * self.theta1_prime)


def _rf_zero_pair(y: complex) -> float:
    """R_F(0, y, conj y), with its first duplication step taken by hand.

    sqrt(y) sqrt(conj y) = |y|, so duplication (DLMF 19.26.18) gives
    2 R_F(|y|, y + |y|, conj y + |y|).  Near the negative real axis,
    Re y + |y| = (Im y)^2/(|y| - Re y) keeps the digits that the sum, and
    the plain algorithm's first step, cancel: near the escape threshold
    R_F(0, e2 - e1, e2 - e3) lost 1e-13 of w_r that way.
    """
    r = abs(y)
    s = y.imag * y.imag / (r - y.real) if y.real < 0.0 else y.real + r
    y1 = complex(s, y.imag)
    return 2.0 * carlson_rf(r, y1, y1.conjugate()).real


def _coordinates(z: complex, a: complex, b: complex) -> tuple[float, float]:
    """Real (x, y) with z = x a + y b."""
    det = a.real * b.imag - a.imag * b.real
    return ((z.real * b.imag - z.imag * b.real) / det,
            (z.imag * a.real - z.real * a.imag) / det)


def _reduced_basis(a: complex, b: complex) -> tuple[complex, complex]:
    """Lagrange-reduced basis of the lattice spanned by a and b.

    Returns (a, b) with |a| <= |b|, |Re(b/a)| <= 1/2 and Im(b/a) > 0, so
    that tau = b/a lies in the fundamental domain, where Im tau >=
    sqrt(3)/2 (DLMF 23.18).
    """
    if abs(b) < abs(a):
        a, b = b, a
    while True:
        b = b - round((b / a).real) * a
        if abs(b) >= abs(a):
            break
        a, b = b, a
    return (a, b) if (b / a).imag > 0.0 else (a, -b)
