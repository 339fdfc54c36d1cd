"""Command-line front end: propagation, classification, periods, searches.

All core math runs in canonical units (mu = 1).  The CLI optionally
accepts a gravitational parameter and a length unit and converts on the
way in and out: with DU the length unit and TU = sqrt(DU^3 / mu), inputs
scale as r/DU, v * TU/DU, alpha * TU^2/DU, t/TU.

Each call parses its arguments once: a first argument naming a command
goes straight to that command's parser (``_parse``).

Exit codes: 0 success, 2 invalid input or domain error, 3 internal
numerical failure.  Domain errors emit a one-line JSON record on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from . import analysis, propagation
from .dynamics import InitialState
from .errors import ConvergenceError, RadialOrbitError, WpInverseError

_SAMPLE_COLUMNS = ("t", "tau", "r", "theta", "v", "gamma")


class _Units:
    """Canonical-unit conversion defined by mu and a length unit."""

    def __init__(self, mu: float, du: float) -> None:
        if mu <= 0.0 or du <= 0.0:
            raise ValueError("mu and du must be positive")
        self.du = du
        self.tu = math.sqrt(du**3 / mu)

    def state(self, r0, v0, gamma0_deg, alpha) -> InitialState:
        return InitialState(
            r0=r0 / self.du,
            v0=v0 * self.tu / self.du,
            gamma0=math.radians(gamma0_deg),
            alpha=alpha * self.tu**2 / self.du,
        )

    def time_in(self, t: float) -> float:
        return t / self.tu

    def time_out(self, t: float) -> float:
        return t * self.tu

    def length_out(self, r: float) -> float:
        return r * self.du

    def speed_out(self, v: float) -> float:
        return v * self.du / self.tu


def _add_state_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r0", type=float, required=True, help="epoch radius")
    p.add_argument("--v0", type=float, required=True, help="epoch speed")
    p.add_argument("--gamma0-deg", type=float, default=0.0,
                   help="flight-path angle in degrees (default 0)")
    p.add_argument("--alpha", type=float, required=True,
                   help="radial acceleration (negative = inward)")
    p.add_argument("--mu", type=float, default=1.0,
                   help="gravitational parameter (default 1, canonical)")
    p.add_argument("--du", type=float, default=1.0,
                   help="length unit for non-dimensionalization (default 1)")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _meta_block(ctx, units: _Units) -> dict:
    lat = ctx.lattice
    g2, g3 = propagation.invariants_from_conserved(ctx.state.alpha, ctx.energy,
                                                   ctx.momentum)
    meta = {
        "energy": ctx.energy,
        "momentum": ctx.momentum,
        "r_pericenter": units.length_out(ctx.r_m),
        "v_pericenter": units.speed_out(ctx.v_m),
        "bounded": ctx.bounded,
        "f_roots": [[z.real, z.imag] for z in ctx.f.roots],
        "g_roots": [[z.real, z.imag] for z in lat.roots.e_tilde],
        "g2": g2,
        "g3": g3,
    }
    if ctx.bounded:
        meta["T_tau"] = ctx.T_tau
        meta["T_t"] = units.time_out(ctx.T_t)
        meta["dtheta_period"] = ctx.dtheta_period
    return meta


def _format_samples(rows: list[dict], meta: dict, fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(_SAMPLE_COLUMNS)]
        lines += [
            ",".join(repr(row[c]) for c in _SAMPLE_COLUMNS) for row in rows
        ]
        return "\n".join(lines) + "\n"
    return json.dumps({"meta": meta, "samples": rows}) + "\n"


def cmd_propagate(args) -> int:
    units = _Units(args.mu, args.du)
    state = units.state(args.r0, args.v0, args.gamma0_deg, args.alpha)
    ctx = propagation.build_context(state)
    n = args.samples
    if n < 1:
        raise ValueError("--samples must be at least 1")
    t0, span = units.time_in(args.t0), units.time_in(args.t_span)
    flag = "--t-span" if args.tau_span is None else "--tau-span"
    if n < 2 and (args.t_span or args.tau_span):
        raise ValueError(f"need at least 2 samples for a nonzero {flag}")
    # the last sample's time or pseudo-time, formed as the loop below forms it
    last = (t0 + span * (n - 1) / max(n - 1, 1) if args.tau_span is None
            else ctx.tau0 + args.tau_span * (n - 1) / max(n - 1, 1))
    if not (math.isfinite(t0) and math.isfinite(last)):
        raise ValueError(f"--t0 and {flag} must give finite sample times, "
                         f"got --t0 {t0!r} and a last sample at {last!r}")
    rows = []
    for i in range(n):
        if args.tau_span is not None:
            tau = ctx.tau0 + args.tau_span * i / max(n - 1, 1)
            ps = propagation.state_at_tau(ctx, tau)
            dt = ps.t - ctx.t0
        else:
            dt = t0 + span * i / max(n - 1, 1)
            ps = propagation.propagate_ctx(ctx, dt)
        rows.append({
            "t": units.time_out(dt),
            "tau": ps.tau,
            "r": units.length_out(ps.r),
            "theta": ps.theta,
            "v": units.speed_out(ps.v),
            "gamma": ps.gamma,
        })
    _emit(_format_samples(rows, _meta_block(ctx, units), args.format), args.out)
    return 0


def cmd_classify(args) -> int:
    units = _Units(args.mu, args.du)
    state = units.state(args.r0, args.v0, args.gamma0_deg, args.alpha)
    report = analysis.boundedness_from_state(state)
    f, region = report.f, report.region
    verdict = ("marginal" if report.marginal
               else "bounded" if report.bounded else "unbounded")
    payload = {
        "verdict": verdict,
        "tag": region.tag.value,
        "energy": state.energy,
        "momentum": state.momentum,
        "allowed_interval": [units.length_out(region.r_lo),
                             None if math.isinf(region.r_hi)
                             else units.length_out(region.r_hi)],
        "f_roots": [[z.real, z.imag] for z in f.roots],
        "e_tilde_max": report.e_tilde_max,
        "threshold": report.threshold,
        "margin": report.margin,
    }
    if args.format == "json":
        _emit(json.dumps(payload) + "\n", args.out)
    else:
        lines = [f"verdict: {verdict}", f"tag: {region.tag.value}"]
        lines.append(f"E = {state.energy!r}, h = {state.momentum!r}")
        lines.append(f"f roots: {', '.join(format(z, '.12g') for z in f.roots)}")
        lines.append(
            "e_tilde_max = {:.12g}, threshold = {:.12g}, margin = {:.12g}"
            .format(report.e_tilde_max, report.threshold, report.margin)
        )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_period(args) -> int:
    if args.kepler_curve and args.samples < 2:
        raise ValueError("--kepler-curve needs at least 2 samples")
    units = _Units(args.mu, args.du)
    state = units.state(args.r0, args.v0, args.gamma0_deg, args.alpha)
    ctx = propagation.SolutionContext(state)     # the frame holds both periods
    if not ctx.bounded:
        raise RadialOrbitError("no period: motion is unbounded")
    payload: dict = {
        "T_tau": ctx.T_tau,
        "T_t": units.time_out(ctx.T_t),
        "T_t_implicit": units.time_out(analysis.true_period_implicit(ctx)),
    }
    if args.kepler_curve:
        n = args.samples
        payload["kepler_curve"] = [
            {"tau": ctx.T_tau * i / (n - 1),
             "t": units.time_out(
                 propagation.radial_kepler(ctx, ctx.T_tau * i / (n - 1)))}
            for i in range(n)
        ]
    if args.format == "json":
        _emit(json.dumps(payload) + "\n", args.out)
    else:
        lines = [f"T_tau = {payload['T_tau']!r}", f"T_t = {payload['T_t']!r}"]
        if args.kepler_curve:
            lines.append("tau,t")
            lines += [f"{row['tau']!r},{row['t']!r}"
                      for row in payload["kepler_curve"]]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_period_sweep(args) -> int:
    units = _Units(args.mu, args.du)
    lines = ["v0,alpha,T_tau"]
    n_v, n_a = args.v0_samples, args.alpha_samples
    for i in range(n_v):
        v0 = args.v0_lo + (args.v0_hi - args.v0_lo) * i / max(n_v - 1, 1)
        for j in range(n_a):
            alpha = (args.alpha_lo
                     + (args.alpha_hi - args.alpha_lo) * j / max(n_a - 1, 1))
            try:
                state = units.state(args.r0, v0, 0.0, alpha)
                t_tau = propagation.SolutionContext(state).T_tau
            except RadialOrbitError:
                continue
            if t_tau is not None:       # bounded
                lines.append(f"{v0!r},{alpha!r},{t_tau!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_find_periodic(args) -> int:
    units = _Units(args.mu, args.du)
    r_m = args.r_m / units.du
    alpha = args.alpha * units.tu**2 / units.du
    v_m, ctx = analysis.find_periodic_v(
        r_m, alpha, (args.M, args.N), (args.bracket_lo, args.bracket_hi)
    )
    payload = {
        "v_m": units.speed_out(v_m),
        "winding_ratio": ctx.dtheta_period / (2.0 * math.pi),
        "T_t": units.time_out(ctx.T_t),
    }
    if args.format == "json":
        _emit(json.dumps(payload) + "\n", args.out)
    else:
        _emit(f"v_m = {payload['v_m']!r}\n"
              f"winding_ratio = {payload['winding_ratio']!r}\n"
              f"T_t = {payload['T_t']!r}\n", args.out)
    return 0


def cmd_escape_alpha(args) -> int:
    units = _Units(args.mu, args.du)
    at_lo = units.state(args.r0, args.v0, args.gamma0_deg, args.alpha_lo)
    a_hi = args.alpha_hi * units.tu**2 / units.du
    alpha_star = analysis.escape_alpha(at_lo.r0, at_lo.v0, at_lo.gamma0,
                                       at_lo.alpha, a_hi)
    out = alpha_star * units.du / units.tu**2
    if args.format == "json":
        _emit(json.dumps({"alpha_star": out}) + "\n", args.out)
    else:
        _emit(f"alpha_star = {out!r}\n", args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Takes "-1e-05" for a value: argparse's negative-number pattern has no exponent."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)    # subparsers are of this class too
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it was, and
    # an in-process caller may call main many times
    ap = _Parser(
        prog="radialorbit",
        description="Constant radial acceleration orbits in closed form",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propagate", help="sample the trajectory over a span")
    _add_state_args(p)
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--t-span", type=float, default=0.0,
                     help="physical-time span from the epoch")
    grp.add_argument("--tau-span", type=float, default=None,
                     help="pseudo-time span from the epoch")
    p.add_argument("--t0", type=float, default=0.0,
                   help="offset of the first sample from the epoch")
    p.add_argument("--samples", type=int, default=100)
    _add_output_args(p)
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("classify", help="boundedness and root taxonomy")
    _add_state_args(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("period", help="radial periods of bounded motion")
    _add_state_args(p)
    p.add_argument("--kepler-curve", action="store_true",
                   help="emit t(tau) samples over one pseudo-period")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_period)

    p = sub.add_parser("period-sweep",
                       help="T_tau over an alpha grid for several v0")
    p.add_argument("--r0", type=float, default=1.0)
    p.add_argument("--v0-lo", type=float, default=0.5)
    p.add_argument("--v0-hi", type=float, default=1.5)
    p.add_argument("--v0-samples", type=int, default=5)
    p.add_argument("--alpha-lo", type=float, required=True)
    p.add_argument("--alpha-hi", type=float, required=True)
    p.add_argument("--alpha-samples", type=int, default=21)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--du", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_period_sweep)

    p = sub.add_parser("find-periodic",
                       help="pericenter speed closing the orbit (q = M/N)")
    p.add_argument("--r-m", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--bracket-lo", type=float, required=True)
    p.add_argument("--bracket-hi", type=float, required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--du", type=float, default=1.0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_find_periodic)

    p = sub.add_parser("escape-alpha",
                       help="escape threshold in alpha: where two roots of f merge")
    p.add_argument("--r0", type=float, required=True)
    p.add_argument("--v0", type=float, required=True)
    p.add_argument("--gamma0-deg", type=float, default=0.0)
    p.add_argument("--alpha-lo", type=float, required=True)
    p.add_argument("--alpha-hi", type=float, required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--du", type=float, default=1.0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_escape_alpha)

    for name, p in sub.choices.items():
        p.set_defaults(command=name)
    ap.commands = sub.choices
    return ap


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace of ``_build_parser().parse_args(argv)``, from one parser pass.

    The top-level parser hands every string after the command on to the
    command's parser unparsed, so a first argument naming a command is
    parsed by that parser alone; strings it leaves are reported as the
    top-level parser reports them.  Anything else (no arguments, -h, an
    unknown command) takes the full parser.
    """
    ap = _build_parser()
    sub = ap.commands.get(argv[0]) if argv else None
    if sub is None:
        return ap.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        ap.error("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (ConvergenceError, WpInverseError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 3
    except (RadialOrbitError, ValueError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
