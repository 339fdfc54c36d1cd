"""Weierstrass elliptic functions for real invariants (g2, g3).

Evaluation strategy: the Laurent/Taylor series of p, p', zeta and sigma
about the origin, combined with argument reduction into the fundamental
cell and the duplication formulas

    p(2z)  = (p''/p')^2 / 4 - 2 p,          p'' = 6 p^2 - g2/2
    p'(2z) = D (12 p - D^2) / 4 - p',       D = p''/p'
    z(2z)  = 2 zeta(z) + p''/(2 p'),
    s(2z)  = -sigma(z)^4 p'(z),

so a reduced argument is halved until the series converges to machine
precision and then doubled back.  Each duplication step amplifies the
rounding error of its input, so the kernel halves only as far as the
truncation bound requires.  The Laurent coefficients are
c_k = (2k-1) sum_w w^(-2k) over the nonzero lattice vectors w, hence

    |c_k z^(2k)| <= (2k-1) sum_w (|z|/|w|)^(2k),

and the first omitted term of the p series, relative to its leading 1/z^2,
stays below the unit roundoff for |z| up to the radius where that bound at
k = TERMS + 1 equals 2^-53.  With 30 terms the radius is about half the
shortest lattice vector, so a point of a squat cell needs at most one
duplication; the radius grows only like (2^-53)^(1/(2 TERMS)), so further
terms save few duplications.  The series are summed in Horner form in z^2;
the coefficient lists and the radius are made on a lattice's first kernel
call.  Values outside the cell follow from periodicity of p, p' and the
quasi-periodicity of zeta and sigma.

On a rectangular lattice (positive discriminant) p, p' and zeta also have
Fourier series in the nome q = exp(-pi |omega'|/omega) (DLMF 23.8.1-23.8.2,
``NomeSeries``): on the real axis one (sin, cos) pair and a few terms
(q <= 0.07 on most lattices of bounded motion, so under ten), and off it
up to |Im z| = |omega'| a few more, with constants made once per lattice.
They serve bounded motion whole: the per-sample path, and in construction
the theta pole, where the Newton polish of the inverse runs on them.  The
Laurent kernel serves the rhombic lattices of unbounded motion (their eta
and every evaluation), unbounded motion on rectangular lattices and
callers of ``wp_all``, ``sigma`` and ``wp_inverse``.  The series take
omega and eta as they are, so they inherit their error from the roots
e_i, which grows near the double-root boundary.

Half-periods and eta come from K and E for a positive discriminant
(rectangular lattice, A&S 18.9), in closed form and with no kernel call,
and from the conjugate-pair construction via Carlson R_F, with eta from the
kernel, for a negative one (rhombic lattice).  Conventions follow A&S
ch. 18: omega1 = omega, omega2 = omega + omega', omega3 = omega',
p(omega_k) = e_k, with the roots e1, e2, e3 ordered by descending
imaginary then real part.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

from .cubic import solve_cubic
from .elliptic import carlson_rf, elliptic_KE
from .errors import (
    DegenerateLatticeError,
    PoleProximityError,
    WpInverseError,
)

_SERIES_TERMS = 30          # Laurent coefficients c_2..c_{TERMS}
_UNIT_ROUNDOFF = 2.0**-53   # truncation target of the series at the halving radius
_POLE_GUARD = 1e-12         # |z - lattice point| below which p, p' and zeta raise


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
    """Roots of 4 s^3 - g2 s - g3 in descending (Im, Re) order."""

    e_tilde: tuple[complex, complex, complex]
    discriminant: float

    @property
    def max_real_root(self) -> float:
        scale = max(abs(z) for z in self.e_tilde) + 1e-300
        return max(z.real for z in self.e_tilde if abs(z.imag) <= 1e-12 * scale)


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
    roots, _, _ = solve_cubic(4.0, 0.0, -inv.g2, -inv.g3)
    return GRoots(e_tilde=(roots[0], roots[1], roots[2]),
                  discriminant=inv.discriminant)


class Lattice:
    """Immutable evaluation context for one pair of invariants.

    Construction computes the cubic roots, the half-periods and the eta
    values: in closed form from K and E on a rectangular lattice, through
    the Laurent kernel on a rhombic one.  The Laurent coefficients, the
    halving radius and the nome series of a rectangular lattice are made
    on first use.  All evaluation methods are pure.
    """

    def __init__(self, inv: Invariants) -> None:
        self.inv = inv
        self.roots = g_roots(inv)
        if self.roots.discriminant > 0.0:
            self.periods = self._rectangular_periods()
        else:
            self.periods = self._rhombic_periods()

    @classmethod
    def from_invariants(cls, g2: float, g3: float) -> "Lattice":
        return cls(Invariants(g2, g3))

    # -- construction ----------------------------------------------------

    def _rectangular_periods(self) -> HalfPeriods:
        """Half periods and eta values of three real roots e1 > e2 > e3.

        With d = e1 - e3, m = (e2 - e3)/d and m1 = (e1 - e2)/d, each from
        its own root difference so that neither loses digits as 1 - the
        other, A&S 18.9 gives omega = K(m)/sqrt(d), omega' = i K(m1)/sqrt(d),

            eta  = sqrt(d) E(m) - e1 omega,
            eta' = -i (sqrt(d) E(m1) + e3 |omega'|).

        Then eta omega' - eta' omega = i (E K' + E' K - K K') = i pi/2 is
        Legendre's relation for K and E, and p(omega_k) = e_k holds by
        construction, so neither needs a check here.
        """
        e1, e2, e3 = (z.real for z in self.roots.e_tilde)
        d = e1 - e3
        m, m1 = (e2 - e3) / d, (e1 - e2) / d
        if not (m > 0.0 and m1 > 0.0):
            raise DegenerateLatticeError(
                f"double root of the lattice cubic (m = {m!r}, m1 = {m1!r})"
            )
        s = math.sqrt(d)
        big_k, big_e = elliptic_KE(m, m1)
        big_k1, big_e1 = elliptic_KE(m1, m)
        omega, omega_i = big_k / s, big_k1 / s
        return HalfPeriods(omega=complex(omega, 0.0),
                           omega_prime=complex(0.0, omega_i),
                           eta=complex(s * big_e - e1 * omega, 0.0),
                           eta_prime=complex(0.0, -(s * big_e1 + e3 * omega_i)))

    def _rhombic_periods(self) -> HalfPeriods:
        """Half periods from R_F at the conjugate pair; eta from the kernel.

        e2 is real and e1, e3 a conjugate pair.  The real half period comes
        from R_F at the real root for (g2, g3); the imaginary one is the same
        object for (g2, -g3), by p(iz; g2, -g3) = -p(z; g2, g3).  The basis
        is set before ``_finish_periods``, whose kernel calls reduce on it;
        the halving radius made from it holds after that conjugates or
        flips it, which keeps every vector length.
        """
        e1, e2, e3 = self.roots.e_tilde
        om_r = carlson_rf(0.0, e2 - e1, e2 - e3)
        om_i = carlson_rf(0.0, e1 - e2, e3 - e2)
        self.periods = HalfPeriods(omega=0.5 * complex(abs(om_r), abs(om_i)),
                                   omega_prime=0.5 * complex(-abs(om_r), abs(om_i)),
                                   eta=0j, eta_prime=0j)
        return self._finish_periods()

    @cached_property
    def _lengths(self) -> tuple[float, ...]:
        """Lengths of the nonzero vectors of the 5 x 5 block of the basis."""
        w1 = 2.0 * self.periods.omega
        w2 = 2.0 * self.periods.omega_prime
        return tuple(abs(m * w1 + n * w2)
                     for m in range(-2, 3) for n in range(-2, 3) if (m, n) != (0, 0))

    @cached_property
    def _dmin(self) -> float:
        """Length of the shortest lattice vector."""
        return min(self._lengths)

    @cached_property
    def _radius(self) -> float:
        """Halving radius of the Laurent series.

        The radius R solves (2K-1) sum_w (R/|w|)^(2K) = unit roundoff for
        the first omitted index K = TERMS + 1, the bound on the relative
        size of the first term the p series leaves out (module docstring).
        Vectors beyond the 5 x 5 block are at least 1.5 times longer than
        the shortest one, so leaving them out moves R by less than 1e-10.
        """
        dmin = self._dmin
        k = _SERIES_TERMS + 1
        tail = (2 * k - 1) * math.fsum((dmin / w) ** (2 * k) for w in self._lengths)
        return dmin * (_UNIT_ROUNDOFF / tail) ** (1.0 / (2 * k))

    @cached_property
    def _horner(self) -> tuple[tuple[float, ...], ...]:
        return _horner_coefficients(self.inv.g2, self.inv.g3)

    def _finish_periods(self) -> HalfPeriods:
        """Fix labelling and orientation, set eta, check p(omega_k) = e_k."""
        p = self.periods
        omega, omega_p = p.omega, p.omega_prime
        # Conjugate-pair labelling: pick the representative with p(omega) = e1
        # (the R_F construction may land on e3 = conj e1).
        p1, _, eta, _ = self._eval_raw(omega)
        e1, _, e3 = self.roots.e_tilde
        if abs(p1 - e1) > abs(p1 - e3):
            omega, omega_p = omega.conjugate(), omega_p.conjugate()
            p1, _, eta, _ = self._eval_raw(omega)
        p3, _, eta_p, _ = self._eval_raw(omega_p)
        # Normalize orientation so the Legendre relation reads +i pi/2.
        legendre = eta * omega_p - eta_p * omega
        if legendre.imag < 0.0:
            omega_p, eta_p = -omega_p, -eta_p
            legendre = -legendre
        if abs(legendre - 1j * math.pi / 2.0) > 1e-10 * (1.0 + abs(legendre)):
            raise DegenerateLatticeError(
                f"Legendre relation violated ({legendre!r}); "
                "invariants too close to the degenerate boundary"
            )
        # p is even, so the orientation flip leaves p3 as it is.
        p2 = self._eval_raw(omega + omega_p)[0]
        scale = max(abs(z) for z in self.roots.e_tilde) + 1.0
        for k, val in enumerate((p1, p2, p3), start=1):
            if abs(val - self.roots.e_tilde[k - 1]) > 1e-6 * scale:
                raise DegenerateLatticeError(
                    f"p(omega_{k}) does not reproduce root {k}; "
                    "lattice construction failed (near-degenerate invariants?)"
                )
        return HalfPeriods(omega=omega, omega_prime=omega_p, eta=eta, eta_prime=eta_p)

    @cached_property
    def nome_series(self) -> "NomeSeries":
        """The real-axis series of a rectangular lattice, made on first use."""
        if self.roots.discriminant <= 0.0:
            raise ValueError("the nome series needs a rectangular lattice")
        per = self.periods
        omega = per.omega.real
        return NomeSeries(omega, abs(per.omega_prime.imag), per.eta.real / omega)

    @cached_property
    def real_half_period(self) -> float:
        """Half the real period of p: omega (rectangular) or omega + omega' (rhombic)."""
        return self.periods.omega_k(1 if self.roots.discriminant > 0.0 else 2).real

    # -- reduction and series ---------------------------------------------

    def _cell_coordinates(self, z: complex) -> tuple[float, float, complex, complex]:
        """(x, y, w1, w2) with z = x w1 + y w2 on the basis (2 omega, 2 omega')."""
        w1, w2 = 2.0 * self.periods.omega, 2.0 * self.periods.omega_prime
        det = w1.real * w2.imag - w1.imag * w2.real
        x = (z.real * w2.imag - z.imag * w2.real) / det
        y = (-z.real * w1.imag + z.imag * w1.real) / det
        return x, y, w1, w2

    def reduce(self, z: complex) -> tuple[complex, int, int]:
        """Translate z by lattice vectors into the centered fundamental cell."""
        x, y, w1, w2 = self._cell_coordinates(z)
        m = math.floor(x + 0.5)
        n = math.floor(y + 0.5)
        return z - m * w1 - n * w2, m, n

    def _eval_raw(self, z: complex) -> tuple[complex, complex, complex, complex]:
        """(p, p', zeta, sigma) at z, assumed inside (or near) the cell."""
        r = abs(z)
        if r == 0.0:
            raise PoleProximityError("evaluation at a lattice point")
        halvings = 0
        if r > self._radius:
            halvings = math.ceil(math.log2(r / self._radius))
        zs = z / (2**halvings)

        # p = 1/z^2 + sum c_k z^(2k-2); zeta = 1/z - sum c_k z^(2k-1)/(2k-1)
        # p' = -2/z^3 + sum (2k-2) c_k z^(2k-3); log(sigma/z) = -sum c_k z^(2k)/((2k-1)2k)
        # Each sum is z^j times a polynomial in u = z^2, summed by Horner.
        u = zs * zs
        sp = spp = szt = sls = 0j
        for cp, cpp, czt, cls in self._horner:
            sp = sp * u + cp
            spp = spp * u + cpp
            szt = szt * u + czt
            sls = sls * u + cls
        p = 1.0 / u + u * sp
        pp = zs * spp - 2.0 / (u * zs)
        zt = 1.0 / zs - zs * u * szt
        sg = zs * cmath.exp(-u * u * sls)

        g2 = self.inv.g2
        for _ in range(halvings):
            ppp = 6.0 * p * p - 0.5 * g2
            d = ppp / pp
            sg = -(sg**4) * pp
            zt = 2.0 * zt + 0.5 * d
            p_new = 0.25 * d * d - 2.0 * p
            pp = 0.25 * d * (12.0 * p - d * d) - pp
            p = p_new
        return p, pp, zt, sg

    # -- public evaluation -------------------------------------------------

    def wp_all(self, z: complex) -> tuple[complex, complex, complex, complex]:
        """(p, p', zeta, sigma) at arbitrary z via quasi-periodic extension."""
        zr, m, n = self.reduce(complex(z))
        if abs(zr) < _POLE_GUARD:
            raise PoleProximityError(
                f"|z - lattice| = {abs(zr):.2e} below pole guard {_POLE_GUARD:.1e}"
            )
        p, pp, zt, sg = self._eval_raw(zr)
        if m or n:
            eta_mn, sg = self._shift(zr, m, n, sg)
            zt = zt + eta_mn
        return p, pp, zt, sg

    def _shift(self, zr: complex, m: int, n: int,
               sg: complex) -> tuple[complex, complex]:
        """(zeta increment, sigma) at zr + 2 m omega + 2 n omega', sg = sigma(zr)."""
        per = self.periods
        eta_mn = 2.0 * (m * per.eta + n * per.eta_prime)
        sign = -1.0 if (m + n + m * n) % 2 else 1.0
        return eta_mn, sg * sign * cmath.exp(
            eta_mn * (zr + m * per.omega + n * per.omega_prime)
        )

    def wp(self, z: complex) -> complex:
        return self.wp_all(z)[0]

    def zeta(self, z: complex) -> complex:
        return self.wp_all(z)[2]

    def sigma(self, z: complex) -> complex:
        zr, m, n = self.reduce(complex(z))
        if abs(zr) < 1e-300:
            return 0j
        if abs(zr) < _POLE_GUARD:
            # sigma is entire; only the shared evaluator guard is bypassed.
            sg = zr
        else:
            sg = self._eval_raw(zr)[3]
        if m or n:
            sg = self._shift(zr, m, n, sg)[1]
        return sg

    def log_sigma(self, z: complex) -> complex:
        """log sigma(z) on a branch continuous along each line Im z = c > 0.

        With w the real half period, e = zeta(w) and u = pi z/(2 w), DLMF
        23.6.9 and 20.5.1 write sigma = exp(B) P with the carrier
        B(z) = e z^2/(2 w) + log(2 w/pi) + log(i/2) - i u + Log(1 - exp(2 i u)),
        whose last three terms are log sin u and continuous for Im z > 0,
        and P the theta_1 product, 2w-periodic and bounded on the line.
        The principal Log of P is continuous while P keeps off the negative
        real axis.
        """
        w = self.real_half_period
        # zeta(w), with the index k of w = omega_k in real_half_period
        eta = self.periods.eta_k(1 if self.roots.discriminant > 0.0 else 2).real
        u = math.pi * z / (2.0 * w)
        carrier = (eta * z * z / (2.0 * w) + math.log(2.0 * w / math.pi)
                   + cmath.log(0.5j) - 1j * u
                   + cmath.log(1.0 - cmath.exp(2j * u)))
        return carrier + cmath.log(self.sigma(z) * cmath.exp(-carrier))

    # -- inversion ----------------------------------------------------------

    def wp_inverse(self, w: complex, branch: int = -1) -> complex:
        """z with p(z) = w and the sign of p'(z) matching ``branch``.

        ``branch`` selects the sign of the dominant component (real or
        imaginary, whichever is larger in magnitude) of p'(z).  The result
        lies in the fundamental cell spanned by (2 omega, 2 omega'); real
        results land in [0, 2 omega).  At the half periods (w a lattice
        root) the branch is immaterial since p' vanishes there.
        """
        return self._inverse(w, branch)[0]

    def wp_inverse_all(self, w: complex, branch: int = -1) -> tuple[
            complex, tuple[complex, complex, complex, complex]]:
        """(z, wp_all(z)) for z = wp_inverse(w, branch).

        The branch check's kernel call at z serves, so z costs no further
        call unless the check flips it to the other branch.
        """
        z, values = self._inverse(w, branch)
        return z, (values if values is not None else self.wp_all(z))

    def _inverse(self, w: complex, branch: int) -> tuple[complex, tuple | None]:
        w = complex(w)
        if branch not in (-1, 1):
            raise ValueError("branch must be +1 or -1")
        e1, e2, e3 = self.roots.e_tilde
        found = self._polish_inverse(carlson_rf(w - e1, w - e2, w - e3), w,
                                     self.wp_all, 0.25 * self._dmin)
        if found is None:
            raise WpInverseError(f"inversion failed for w={w!r}")
        return self._select_branch(found[0], branch)

    def wp_inverse_real(self, w: float, gaps: tuple[float, float, float]) -> float:
        """x in [0, omega] with p(x) = w >= e1 on a rectangular lattice.

        ``gaps`` are w - e_i for i = 1, 2, 3, which a caller can often form
        with less cancellation than the subtraction; a gap a rounding
        below 0 counts as 0 (w = e1, x = omega).  The real R_F of the gaps
        is x, and Newton steps on the nome series polish it.
        """
        omega = self.periods.omega.real
        seed = carlson_rf(*(max(g, 0.0) for g in gaps))
        found = self._polish_inverse(seed, w, self.nome_series.at,
                                     0.5 * min(omega, self.periods.omega_prime.imag))
        if found is None:
            raise WpInverseError(f"inversion failed for w={w!r}")
        x = abs(found[0])          # p is even, and symmetric about omega
        return 2.0 * omega - x if x > omega else x

    def wp_inverse_imaginary(self, w: float, gaps: tuple[float, float, float]
                             ) -> tuple[complex, tuple[complex, complex, complex]]:
        """(v, (p, p', zeta) at v) with p(v) = w <= e3 on a rectangular lattice.

        ``gaps`` are e_i - w >= 0 for i = 1, 2, 3, formed by the caller as
        for ``wp_inverse_real``.  p(iy; g2, g3) = -p(y; g2, -g3) makes
        y = R_F(gaps) the point of (0, |omega'|] with p(iy) = w; there
        p'(iy) = -i dp(iy)/dy lies on the -i branch, and its mirror
        v = 2 omega' - iy, with |omega'| <= Im v < 2 |omega'|, on the +i
        branch.  Newton steps on the nome series at the reduced point
        v_c = -iy (``NomeSeries.at_complex``) polish y; the values at v are
        those at v_c with 2 eta' added to zeta.
        """
        ns = self.nome_series
        half = self.periods.omega_prime.imag
        seed = complex(0.0, -carlson_rf(*(max(g, 0.0) for g in gaps)))
        found = self._polish_inverse(seed, w, ns.at_complex,
                                     0.5 * min(self.periods.omega.real, half))
        if found is None:
            raise WpInverseError(f"inversion failed for w={w!r}")
        v_c, values = found
        y = abs(v_c.imag)
        if y > half:               # a step past omega' lands on the mirror point
            y = 2.0 * half - y
        if v_c.imag != -y:
            v_c = complex(0.0, -y)
            values = ns.at_complex(v_c)
        p, pp, zt = values
        return complex(0.0, 2.0 * half - y), (p, pp, zt + 2.0 * self.periods.eta_prime)

    def _polish_inverse(self, z, w, evaluate, lim) -> tuple | None:
        """(z, evaluate(z)) at the Newton iterate with the least |p(z) - w|.

        ``evaluate`` returns p and p' first; a step is cut to length lim.
        None when the least residual exceeds 1e-11 (1 + |w|).
        """
        tol = 1e-11 * (1.0 + abs(w))
        best, best_res = None, math.inf
        for _ in range(60):
            zr, _, _ = self.reduce(z)
            if abs(zr) < 10.0 * _POLE_GUARD:
                break
            values = evaluate(z)
            p, pp = values[0], values[1]
            res = abs(p - w)
            if res < best_res:
                best, best_res = (z, values), res
            if res <= 1e-13 * (1.0 + abs(w)):
                break
            if abs(pp) < 1e-13 * (1.0 + abs(p)) ** 1.5:
                break  # half-period target; Carlson seed is already exact
            step = (p - w) / pp
            if abs(step) > lim:
                step *= lim / abs(step)
            z = z - step
        return best if best_res <= tol else None

    def _select_branch(self, z: complex, branch: int) -> tuple[complex, tuple | None]:
        """(z, wp_all(z)) on the branch; None for the values when z flipped."""
        z = self._canonical(z)
        values = self.wp_all(z)
        p, pp = values[0], values[1]
        scale = (1.0 + abs(p)) ** 1.5
        if abs(pp) <= 1e-10 * scale:
            return z, values
        comp = pp.real if abs(pp.real) >= abs(pp.imag) else pp.imag
        if comp * branch < 0.0:
            return self._canonical(-z), None
        return z, values

    def _canonical(self, z: complex) -> complex:
        """Representative with cell coordinates in [0, 1); real input -> [0, 2w)."""
        x, y, w1, w2 = self._cell_coordinates(z)
        z = z - math.floor(x + 1e-13) * w1 - math.floor(y + 1e-13) * w2
        if abs(z.imag) <= 1e-12 * (1.0 + abs(z.real)):
            z = complex(z.real, 0.0)
        return z


class NomeSeries:
    """p, p' and zeta at real z on a rectangular lattice (DLMF 23.8.1-23.8.2).

    With k = pi/(2 omega), u = k z, the nome q = exp(-pi |omega'|/omega)
    and c_n = q^(2n)/(1 - q^(2n)):

        p     = -eta/omega + k^2 (csc^2 u - 8 sum n c_n cos 2nu),
        p'    = k^3 (-2 cos u/sin^3 u + 16 sum n^2 c_n sin 2nu),
        zeta  = eta z/omega + k (cot u + 4 sum c_n sin 2nu).

    sin u and cos u are taken directly, since csc^2 u from 1 - cos 2u
    would lose digits near the pole, and sin 2nu, cos 2nu follow by angle
    addition.  The series stops before the first n with
    16 n^2 c_n <= 2^-53 (1 - q).  From that n on, successive terms shrink
    by at most ((n+1)/n)^2 q^2, and that is below q at the stopping index
    for every q < 0.98 (q = 0.41 on the bounded near-escape states of the
    benchmark).  So the omitted tail of each sum is below the unit
    roundoff in units of k^2, k^3 and k, the sizes of the leading terms
    csc^2 u >= 1, the cube and the cotangent.
    """

    __slots__ = ("k", "nome", "eta_over_omega", "terms")

    def __init__(self, omega: float, omega_imag: float, eta_over_omega: float) -> None:
        q = math.exp(-math.pi * omega_imag / omega)
        q2 = q * q
        terms = []
        n, q2n = 1, q2
        while True:
            c = q2n / (1.0 - q2n)
            if 16.0 * n * n * c <= _UNIT_ROUNDOFF * (1.0 - q):
                break
            terms.append((8.0 * n * c, 16.0 * n * n * c, 4.0 * c))
            n, q2n = n + 1, q2n * q2
        self.k = math.pi / (2.0 * omega)
        self.nome = q
        self.eta_over_omega = eta_over_omega
        self.terms = tuple(terms)   # (8 n c_n, 16 n^2 c_n, 4 c_n), n = 1, 2, ...

    def at(self, x: float) -> tuple[float, float, float]:
        """(p, p', zeta) at real x."""
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
        """(p, p', zeta) at complex z with |Im z| <= |omega'|.

        The same series continued off the real axis: sin 2nu and cos 2nu
        grow like e^(2n|Im u|), so the n-th term of the p' sum is at most
        B_n = 16 n^2 c_n e^(2n|Im u|), and B_(n+1)/B_n <= r_n =
        ((n+1)/n)^2 q^2 e^(2|Im u|), which falls with n.  |Im u| <=
        pi |omega'|/(2 omega) makes e^(2|Im u|) <= 1/q, so r_n <= 4q.  The
        sums stop before the first n with r_n < 1 and B_n <= 2^-53 (1 - r_n),
        so the omitted tail of each is below the unit roundoff in units of
        k^2, k^3 and k.
        """
        k = self.k
        u = k * z
        s, c = cmath.sin(u), cmath.cos(u)
        if abs(s) < k * _POLE_GUARD:
            raise PoleProximityError(f"argument {z!r} at a lattice point")
        s2, c2 = 2.0 * s * c, (c - s) * (c + s)
        q2 = self.nome * self.nome
        spread = math.exp(2.0 * abs(u.imag))
        sn, cn = s2, c2
        sp = spp = szt = 0j
        n, q2n, grow = 1, q2, spread
        while True:
            cq = q2n / (1.0 - q2n)
            bound = 16.0 * n * n * cq * grow
            ratio = ((n + 1) / n) ** 2 * q2 * spread
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


def _horner_coefficients(g2: float, g3: float) -> tuple[tuple[float, ...], ...]:
    """Coefficients of u^(k-2) in the p, p', zeta and log sigma sums, k descending."""
    # c_2 = g2/20, c_3 = g3/28, c_k = 3 sum(c_m c_{k-m}) / ((2k+1)(k-3)).
    # The sum is symmetric in m <-> k-m: each pair enters doubled, which is
    # exact, so the correctly rounded fsum is unchanged bit for bit.
    c = [0.0, 0.0, g2 / 20.0, g3 / 28.0]
    for k in range(4, _SERIES_TERMS + 1):
        terms = [2.0 * c[m] * c[k - m] for m in range(2, (k + 1) // 2)]
        if k % 2 == 0:
            terms.append(c[k // 2] * c[k // 2])
        c.append(3.0 * math.fsum(terms) / ((2 * k + 1) * (k - 3)))
    return tuple(
        (c[k], (2 * k - 2) * c[k], c[k] / (2 * k - 1), c[k] / ((2 * k - 1) * (2 * k)))
        for k in range(_SERIES_TERMS, 1, -1)
    )
