import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

import radialorbit
from radialorbit import cli, propagation, weierstrass


WORKED = ["--r0", "1.0", "--v0", "1.2", "--alpha", "0.02"]
ROSETTE = ["--r0", "1.0", "--v0", "1.2601352426205996", "--alpha", "-0.05"]
# off-pericenter epoch: tau0, t0 and the epoch angle are all nonzero
TILTED = ["--r0", "1.3", "--v0", "1.0", "--gamma0-deg", "25", "--alpha", "0.02"]
# inbound epoch in a confining field (alpha < 0)
INBOUND = ["--r0", "1.5", "--v0", "0.9", "--gamma0-deg=-40", "--alpha", "-0.03"]

# Outputs of the CLI for the two anchor states, kept as a regression
# record of the closed form; compared at 1e-12 relative.
GOLDEN_JSON = {
    "classify_worked": (["classify", *WORKED, "--format", "json"], {
        "verdict": "bounded", "tag": "bounded-below-gap",
        "energy": -0.30000000000000004, "momentum": 1.2,
        "allowed_interval": [1.0, 3.394448724536009],
        "f_roots": [[10.605551275463993, 0.0], [3.394448724536009, 0.0],
                    [1.0, 0.0]],
        "e_tilde_max": 0.05605551275463992,
        "threshold": -0.04000000000000001,
        "margin": 0.09605551275463993,
    }),
    "classify_rosette": (["classify", *ROSETTE, "--format", "json"], {
        "verdict": "bounded", "tag": "bounded-annulus",
        "energy": -0.15602958515276127, "momentum": 1.2601352426205996,
        "allowed_interval": [1.0, 2.425707636296117],
        "f_roots": [[2.425707636296117, 0.0], [1.0, 0.0],
                    [-6.546299339351342, 0.0]],
        "e_tilde_max": 0.13765255262499002,
        "threshold": -0.05100493085879355,
        "margin": 0.18865748348378356,
    }),
    "period_worked": (["period", *WORKED, "--format", "json"], {
        "T_tau": 10.875802896338927,
        "T_t": 24.362743957666375,
        "T_t_implicit": 24.362743957666346,
    }),
    "period_rosette": (["period", *ROSETTE, "--format", "json"], {
        "T_tau": 6.923421686981128,
        "T_t": 11.752090973005838,
        "T_t_implicit": 11.752090973005842,
    }),
    "find_periodic_worked": (
        ["find-periodic", "--r-m", "1.0", "--alpha", "0.02", "--M", "1",
         "--N", "10", "--bracket-lo", "1.15", "--bracket-hi", "1.22",
         "--format", "json"], {
            "v_m": 1.1978720061024752,
            "winding_ratio": 1.1000000000000005,
            "T_t": 23.564355221005474,
        }),
    "find_periodic_rosette": (
        ["find-periodic", "--r-m", "1.0", "--alpha", "-0.05", "--M", "9",
         "--N", "10", "--bracket-lo", "1.25", "--bracket-hi", "1.27",
         "--format", "json"], {
            "v_m": 1.2601352426205996,
            "winding_ratio": 0.8999999999999709,
            "T_t": 11.752090973005837,
        }),
    "escape_alpha_worked": (
        ["escape-alpha", "--r0", "1.0", "--v0", "1.2", "--alpha-lo", "0.01",
         "--alpha-hi", "0.05", "--format", "json"],
        {"alpha_star": 0.02722222222222223}),
    "escape_alpha_rosette": (
        ["escape-alpha", "--r0", "1.0", "--v0", "1.2601352426205996",
         "--alpha-lo", "-0.05", "--alpha-hi", "0.05", "--format", "json"],
        {"alpha_star": 0.013365797126831863}),
}

GOLDEN_SWEEP = {
    "worked": (
        ["period-sweep", "--r0", "1.0", "--v0-lo", "1.15", "--v0-hi", "1.25",
         "--v0-samples", "3", "--alpha-lo", "0.01", "--alpha-hi", "0.03",
         "--alpha-samples", "3"], [
            (1.15, 0.01, 8.077725779241574),
            (1.15, 0.019999999999999997, 8.696712157695146),
            (1.15, 0.03, 9.697777403927818),
            (1.2, 0.01, 9.226173066919939),
            (1.2, 0.019999999999999997, 10.875802896338927),
            (1.25, 0.01, 11.646032513328633),
        ]),
    "rosette": (
        ["period-sweep", "--r0", "1.0", "--v0-lo", "1.25", "--v0-hi", "1.27",
         "--v0-samples", "3", "--alpha-lo", "-0.06", "--alpha-hi", "-0.04",
         "--alpha-samples", "3"], [
            (1.25, -0.06, 6.64217365566649),
            (1.25, -0.05, 6.8757909768269),
            (1.25, -0.04, 7.154115820899627),
            (1.26, -0.06, 6.680445901832603),
            (1.26, -0.05, 6.922790019452678),
            (1.26, -0.04, 7.213203649447237),
            (1.27, -0.06, 6.718014170819311),
            (1.27, -0.05, 6.969166171495008),
            (1.27, -0.04, 7.271892576899888),
        ]),
}


# `propagate --format json` rows of the four anchors over 41 samples, kept
# in golden_propagate.json under "<state>_<span>"; compared at 1e-12.
GOLDEN_PROPAGATE_STATES = {"worked": WORKED, "rosette": ROSETTE,
                           "tilted": TILTED, "inbound": INBOUND}
GOLDEN_PROPAGATE_SPANS = {"t_span": ["--t-span", "500"],
                          "tau_span": ["--tau-span", "100"]}
# Unbounded states, one for each line that holds the theta pole
# (``propagation._theta_pole``), under "<state>_t_span" alone: the imaginary
# axis of a rectangular lattice, its line Re v = omega (all of f's roots
# positive), and a rhombic lattice.
GOLDEN_UNBOUNDED_STATES = {
    "unbounded_axis": ["--r0", "1.0", "--v0", "1.5", "--alpha", "1e-06"],
    "unbounded_shift": ["--r0", "4.87", "--v0", "0.115", "--gamma0-deg", "44",
                        "--alpha", "0.26"],
    "unbounded_rhombic": ["--r0", "1.1", "--v0", "1.5", "--gamma0-deg", "30",
                          "--alpha", "0.05"],
}
with open(os.path.join(os.path.dirname(__file__),
                       "golden_propagate.json")) as _fh:
    GOLDEN_PROPAGATE = json.load(_fh)


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_ok(argv):
    code, out, err = run_cli(argv)
    assert code == 0, err
    return out


def assert_close(got, want, rel=1e-12):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for key in want:
            assert_close(got[key], want[key], rel)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_close(g, w, rel)
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=rel, abs=0.0)
    else:
        assert got == want


def propagate_rows(argv):
    return json.loads(run_ok(["propagate", *argv, "--format", "json"]))["samples"]


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
    def test_json_commands(self, name):
        argv, want = GOLDEN_JSON[name]
        assert_close(json.loads(run_ok(argv)), want)

    @pytest.mark.parametrize("state", sorted(GOLDEN_PROPAGATE_STATES))
    @pytest.mark.parametrize("span", sorted(GOLDEN_PROPAGATE_SPANS))
    def test_propagate(self, state, span):
        argv = ["propagate", *GOLDEN_PROPAGATE_STATES[state],
                *GOLDEN_PROPAGATE_SPANS[span], "--samples", "41",
                "--format", "json"]
        assert_close(json.loads(run_ok(argv)),
                     GOLDEN_PROPAGATE[f"{state}_{span}"])

    @pytest.mark.parametrize("state", sorted(GOLDEN_UNBOUNDED_STATES))
    def test_propagate_unbounded(self, state):
        argv = ["propagate", *GOLDEN_UNBOUNDED_STATES[state],
                *GOLDEN_PROPAGATE_SPANS["t_span"], "--samples", "41",
                "--format", "json"]
        assert_close(json.loads(run_ok(argv)), GOLDEN_PROPAGATE[f"{state}_t_span"])

    @pytest.mark.parametrize("name", sorted(GOLDEN_SWEEP))
    def test_period_sweep(self, name):
        argv, want = GOLDEN_SWEEP[name]
        header, *lines = run_ok(argv).strip().splitlines()
        assert header == "v0,alpha,T_tau"
        got = [tuple(float(x) for x in line.split(",")) for line in lines]
        assert_close([list(row) for row in got], [list(row) for row in want])
        # the sweep's T_tau is the context's, bit for bit
        r0 = float(argv[argv.index("--r0") + 1])
        for v0, alpha, t_tau in got:
            state = radialorbit.InitialState(r0, v0, 0.0, alpha)
            assert t_tau == radialorbit.build_context(state).T_tau


class TestPropagate:
    def test_tau_span_measures_theta_from_epoch(self):
        rows = propagate_rows([*TILTED, "--tau-span", "1.0", "--samples", "2"])
        assert rows[0]["t"] == 0.0
        assert rows[0]["theta"] == 0.0
        assert rows[0]["r"] == pytest.approx(1.3, rel=1e-12)

    def test_tau_span_matches_t_span_at_equal_t(self):
        rows = propagate_rows([*TILTED, "--tau-span", "6.0", "--samples", "4"])
        for row in rows[1:]:
            (other,) = propagate_rows([*TILTED, "--t0", repr(row["t"]),
                                       "--samples", "1"])
            assert other["t"] == row["t"]
            assert other["tau"] == pytest.approx(row["tau"], rel=1e-12)
            for key in ("r", "theta", "v", "gamma"):
                assert other[key] == pytest.approx(row[key], rel=1e-10,
                                                   abs=1e-12)

    def test_t_column_is_the_requested_time(self):
        rows = propagate_rows([*TILTED, "--t-span", "1.0", "--samples", "2"])
        assert [row["t"] for row in rows] == [0.0, 1.0]
        rows = propagate_rows([*TILTED, "--t0", "0.3", "--t-span", "2.0",
                               "--samples", "5"])
        assert [row["t"] for row in rows] == [0.3 + 2.0 * i / 4 for i in range(5)]

    @pytest.mark.parametrize("flag", ["--t-span", "--tau-span"])
    def test_single_sample_needs_zero_span(self, flag):
        code, out, err = run_cli(["propagate", *WORKED, flag, "1.0",
                                  "--samples", "1"])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"

    @pytest.mark.parametrize("argv, flag", [
        (["--t0", "inf", "--samples", "1"], "--t-span"),
        (["--t0", "nan"], "--t-span"),
        (["--t-span", "nan"], "--t-span"),
        (["--t-span", "inf"], "--t-span"),
        (["--tau-span", "nan"], "--tau-span"),
        (["--tau-span", "inf"], "--tau-span"),
        # finite flags whose last sample, span * (n - 1) / (n - 1), overflows
        (["--t-span", "1e308", "--samples", "3"], "--t-span"),
        (["--tau-span", "1e308", "--samples", "3"], "--tau-span"),
    ], ids=["t0-inf", "t0-nan", "t_span-nan", "t_span-inf", "tau_span-nan", "tau_span-inf",
            "t_span-last", "tau_span-last"])
    def test_non_finite_times_are_rejected(self, argv, flag):
        # they exited 1 with OverflowError, or 2 with "cannot convert float
        # NaN to integer"
        code, out, err = run_cli(["propagate", *WORKED, *argv])
        assert (code, out) == (2, "")
        record = json.loads(err)
        assert record["error"] == "ValueError"
        assert record["message"].startswith(f"--t0 and {flag} must give finite sample times")

    def test_period_count_past_the_floats_is_a_domain_error(self):
        # t0/T_t is finite but its whole periods of T_tau are not: the fold
        # of theta exited 1 with an OverflowError
        code, out, err = run_cli(["propagate", "--r0", "0.05", "--v0", "6.2",
                                  "--alpha", "0.02", "--t0", "1.7e308", "--samples", "1"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "OutOfIntervalError"

    def test_time_past_the_escape_asymptote_is_a_domain_error(self):
        # t(tau) at the last float below w_r is 1.13e17 on this orbit: the
        # sample at 1.7e308 exited 1 with ZeroDivisionError
        code, out, err = run_cli(["propagate", "--r0", "1", "--v0", "1.5", "--alpha", "0.02",
                                  "--t-span", "1.7e308", "--samples", "2"])
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "OutOfIntervalError"

    def test_zero_samples_are_rejected(self):
        code, out, err = run_cli(["propagate", *WORKED, "--samples", "0"])
        assert (code, out) == (2, "")
        assert json.loads(err)["message"] == "--samples must be at least 1"

    @pytest.mark.parametrize("flag", ["--t-span", "--tau-span"])
    def test_single_sample_with_zero_span_is_the_epoch(self, flag):
        (row,) = propagate_rows([*TILTED, flag, "0", "--samples", "1"])
        assert row["t"] == 0.0 and row["theta"] == 0.0

    @pytest.mark.parametrize("state, span", [(WORKED, 300.0),
                                             (ROSETTE, 150.0)])
    def test_long_tau_span_folds_whole_periods(self, state, span):
        # unfolded, sigma's quasi-periodic factor overflows past ~20
        # periods; both states start at pericenter
        doc = json.loads(run_ok(["propagate", *state, "--tau-span", repr(span),
                                 "--samples", "3", "--format", "json"]))
        meta, last = doc["meta"], doc["samples"][-1]
        n = math.floor(span / meta["T_tau"])
        assert n >= 20
        ref = propagate_rows([*state, "--tau-span",
                              repr(span - n * meta["T_tau"]), "--samples", "2"])[-1]
        assert last["t"] == pytest.approx(ref["t"] + n * meta["T_t"], rel=1e-12)
        assert last["theta"] == pytest.approx(
            ref["theta"] + n * meta["dtheta_period"], rel=1e-12)
        for key in ("r", "v", "gamma"):
            assert last[key] == pytest.approx(ref[key], rel=1e-9)

    UNBOUNDED = ["--r0", "1", "--v0", "1.2", "--alpha", "0.1"]   # w_r = 5.68

    def test_tau_span_past_the_escape_asymptote_is_rejected(self):
        code, out, err = run_cli(["propagate", *self.UNBOUNDED, "--tau-span",
                                  "20", "--samples", "5"])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "OutOfIntervalError"

    def test_tau_span_inside_the_escape_asymptote(self):
        rows = propagate_rows([*self.UNBOUNDED, "--tau-span", "5.5",
                               "--samples", "5"])
        assert rows[-1]["tau"] == 5.5
        assert all(b["t"] > a["t"] and b["r"] > a["r"]
                   for a, b in zip(rows, rows[1:]))


class TestParser:
    # subcommands and flags alternate, so state left behind by one parse
    # (a --tau-span before a default --t-span run) would show in the next
    SEQUENCE = [
        ["propagate", *TILTED, "--tau-span", "2.0", "--samples", "3"],
        ["propagate", *TILTED, "--samples", "3"],
        ["classify", *WORKED],
        ["propagate", *TILTED, "--t-span", "1.5", "--samples", "3",
         "--format", "json"],
        ["period", *WORKED, "--kepler-curve", "--samples", "3"],
        ["propagate", *TILTED, "--t0", "0.5", "--samples", "2"],
        ["period", *WORKED],
    ]

    def test_built_once_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_reuse_matches_fresh_parsers(self, monkeypatch):
        fresh = cli._build_parser.__wrapped__
        for argv in self.SEQUENCE:
            assert vars(cli._build_parser().parse_args(argv)) == \
                vars(fresh().parse_args(argv))
        reused = [run_ok(argv) for argv in self.SEQUENCE]
        monkeypatch.setattr(cli, "_build_parser", fresh)
        assert reused == [run_ok(argv) for argv in self.SEQUENCE]


    # repr writes every |x| < 1e-4 with an exponent, which argparse's own
    # negative-number pattern lacks: "--alpha -1e-05" exited 2 with
    # "expected one argument".  One float option per subcommand, each
    # against the same value joined to its flag
    NEGATIVE_EXPONENT = [
        ["propagate", "--r0", "1.0", "--v0", "1.2", "--gamma0-deg", "-1e-05",
         "--alpha", "0.02", "--t-span", "1.0", "--samples", "2"],
        ["classify", "--r0", "1.0", "--v0", "1.2", "--alpha", "-1e-05"],
        ["period", "--r0", "1.0", "--v0", "1.2", "--alpha", "-1e-05"],
        ["period-sweep", "--v0-samples", "2", "--alpha-lo", "-1e-05",
         "--alpha-hi", "0.02", "--alpha-samples", "2"],
        ["find-periodic", "--r-m", "1", "--alpha", "-1e-05", "--M", "1",
         "--N", "20000", "--bracket-lo", "1.1", "--bracket-hi", "1.3"],
        ["escape-alpha", "--r0", "1.0", "--v0", "1.2", "--gamma0-deg", "-1e-05",
         "--alpha-lo", "0.01", "--alpha-hi", "0.05"],
    ]

    @pytest.mark.parametrize("argv", NEGATIVE_EXPONENT, ids=[a[0] for a in NEGATIVE_EXPONENT])
    def test_negative_number_with_an_exponent(self, argv):
        i = argv.index("-1e-05")
        joined = argv[:i - 1] + [f"{argv[i - 1]}=-1e-05"] + argv[i + 1:]
        args = cli._build_parser().parse_args(argv)
        assert vars(args) == vars(cli._build_parser().parse_args(joined))
        assert getattr(args, argv[i - 1].lstrip("-").replace("-", "_")) == -1e-05
        assert run_ok(argv) == run_ok(joined)

    # A first argument naming a command is parsed by that command's parser
    # alone (``cli._parse``); the full parser takes the rest.  Both routes
    # must give one namespace, and one stdout, stderr and exit code on
    # errors and help, the top-level usage included
    @pytest.mark.parametrize("argv", SEQUENCE + NEGATIVE_EXPONENT)
    def test_dispatch_matches_the_full_parser(self, argv):
        assert vars(cli._parse(argv)) == vars(cli._build_parser().parse_args(argv))

    ROUTE_CASES = {
        "unrecognized_flag": ["period", *WORKED, "--bogus", "1"],
        "stray_positional": ["period", *WORKED, "stray"],
        "missing_required": ["period", "--r0", "1.0", "--v0", "1.2"],
        "bad_choice": ["period", *WORKED, "--format", "xml"],
        "not_a_float": ["period", "--r0", "one", "--v0", "1.2", "--alpha", "0.02"],
        "exclusive_spans": ["propagate", *WORKED, "--t-span", "1", "--tau-span", "1"],
        "abbreviated": ["period", "--r0", "1.0", "--v0", "1.2", "--alp", "0.02"],
        "command_help": ["period", "-h"],
        "no_arguments": [],
        "unknown_command": ["bogus", *WORKED],
        "top_level_help": ["--help"],
    }

    @staticmethod
    def outcome(argv):
        """(exit code, stdout, stderr) of ``cli.main``, SystemExit included."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("name", ROUTE_CASES)
    def test_errors_and_help_match_the_full_parser(self, name, monkeypatch):
        argv = self.ROUTE_CASES[name]
        dispatched = self.outcome(argv)
        monkeypatch.setattr(cli, "_parse", lambda a: cli._build_parser().parse_args(a))
        assert dispatched == self.outcome(argv)
        assert dispatched[0] in (0, 2) and (dispatched[1] or dispatched[2])

    def test_command_skips_the_top_level_pass(self, monkeypatch):
        ap = cli._build_parser()
        top_level, entered = ap.parse_known_args, []

        def spy(*args, **kwargs):
            entered.append(args)
            return top_level(*args, **kwargs)

        monkeypatch.setattr(ap, "parse_known_args", spy)
        run_ok(["period", *WORKED])
        assert entered == []
        with pytest.raises(SystemExit):
            cli.main(["bogus"])
        assert entered


class TestPeriod:
    def test_kepler_curve_spans_one_pseudo_period(self):
        doc = json.loads(run_ok(["period", *WORKED, "--kepler-curve",
                                 "--samples", "3", "--format", "json"]))
        curve = doc["kepler_curve"]
        assert [row["tau"] for row in curve] == pytest.approx(
            [0.0, 0.5 * doc["T_tau"], doc["T_tau"]], rel=1e-15, abs=0.0)
        assert curve[0]["t"] == 0.0
        assert curve[-1]["t"] == pytest.approx(doc["T_t"], rel=1e-12)

    @pytest.mark.parametrize("samples", ["1", "0", "-3"])
    def test_kepler_curve_rejects_fewer_than_two_samples(self, samples):
        code, out, err = run_cli(["period", *WORKED, "--kepler-curve",
                                  "--samples", samples])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"

    def test_unbounded_is_a_domain_error(self):
        code, _, err = run_cli(["period", "--r0", "1.0", "--v0", "1.2",
                                "--alpha", "0.1"])
        assert code == 2
        assert json.loads(err)["error"] == "RadialOrbitError"

    @staticmethod
    def frame_only(monkeypatch):
        """Make the pole and epoch stages fail: a command that reaches them fails."""
        def refused(self):
            raise AssertionError("a period command built past the frame")

        monkeypatch.setattr(propagation.SolutionContext, "add_pole", refused)
        monkeypatch.setattr(propagation.SolutionContext, "add_epoch", refused)

    def test_periods_come_from_the_frame_alone(self, monkeypatch):
        # period and period-sweep build no theta pole and no epoch, and
        # print what they printed from a full context
        argvs = [GOLDEN_JSON["period_worked"][0], GOLDEN_JSON["period_rosette"][0],
                 GOLDEN_SWEEP["worked"][0], GOLDEN_SWEEP["rosette"][0]]
        full = [run_ok(argv) for argv in argvs]
        self.frame_only(monkeypatch)
        assert [run_ok(argv) for argv in argvs] == full

    def test_kepler_curve_from_the_frame_alone(self, monkeypatch):
        ctx = radialorbit.build_context(radialorbit.InitialState(1.0, 1.2, 0.0, 0.02))
        self.frame_only(monkeypatch)
        doc = json.loads(run_ok(["period", *WORKED, "--kepler-curve", "--samples", "5",
                                 "--format", "json"]))
        assert doc["T_tau"] == ctx.T_tau and doc["T_t"] == ctx.T_t
        assert doc["kepler_curve"] == [
            {"tau": ctx.T_tau * i / 4, "t": propagation.radial_kepler(ctx, ctx.T_tau * i / 4)}
            for i in range(5)]

    def test_sweep_frames_build_no_imaginary_half(self, monkeypatch):
        # the sweep reads T_tau, the real half of each lattice: bounded,
        # k = 1 and rhombic states alike leave the imaginary half unbuilt
        def refused(self):
            raise AssertionError("a sweep frame built the imaginary half of its lattice")

        want = [run_ok(GOLDEN_SWEEP[name][0]) for name in sorted(GOLDEN_SWEEP)]
        monkeypatch.setattr(weierstrass.Lattice, "_rectangular_imaginary", refused)
        monkeypatch.setattr(weierstrass.Lattice, "_rhombic_imaginary", refused)
        assert [run_ok(GOLDEN_SWEEP[name][0]) for name in sorted(GOLDEN_SWEEP)] == want
        # rectangular (k = 1) at alpha = 1e-6, rhombic above
        unbounded = ["period-sweep", "--r0", "1.0", "--v0-lo", "1.5", "--v0-hi", "1.6",
                     "--v0-samples", "2", "--alpha-lo", "1e-6", "--alpha-hi", "0.3",
                     "--alpha-samples", "3"]
        assert run_ok(unbounded) == "v0,alpha,T_tau\n"

    def test_exact_circle(self):
        # v0^2 = 1/r0 - alpha r0 at alpha = -0.2: the theta pole falls on the
        # lattice's double root, so propagate fails as before, but the
        # period, which builds no pole, is the epicyclic one, 2 pi/sqrt(1.6)
        circle = ["--r0", "1", "--v0", "1.0954451150103321", "--alpha", "-0.2"]
        assert run_ok(["period", *circle]).splitlines() == [
            "T_tau = 4.967294132898051", "T_t = 4.96729413289805"]
        assert 2.0 * math.pi / math.sqrt(1.6) == 4.967294132898051
        doc = json.loads(run_ok(["period", *circle, "--format", "json"]))
        assert doc["T_t_implicit"] == pytest.approx(doc["T_t"], rel=1e-14, abs=0.0)
        code, out, err = run_cli(["propagate", *circle, "--t-span", "6", "--samples", "3"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "DegenerateLatticeError"


class TestClassify:
    # f has one real root: the pair that merges at the escape threshold is
    # complex and far apart, and e_k is the only real lattice root, so the
    # margin is 0 and says nothing about nearness to escape
    @pytest.mark.parametrize("state", [
        ["--r0", "1", "--v0", "1.5", "--alpha", "0.05"],
        ["--r0", "1.1", "--v0", "1.5", "--gamma0-deg", "30", "--alpha", "0.05"],
    ])
    def test_unbounded_verdict_follows_the_region(self, state):
        doc = json.loads(run_ok(["classify", *state, "--format", "json"]))
        assert doc["verdict"] == "unbounded"
        assert doc["tag"] == "unbounded-above"
        assert doc["margin"] == 0.0

    @pytest.mark.parametrize("gamma0_deg", ["90", "89.9999999"])
    def test_radial_start_needs_no_pericenter(self, gamma0_deg):
        # h = 0 or 2.1e-9: f = 2 r (a r^2 + E r + 1) - h^2 has roots 0, 4
        # and 25 to rounding, and the allowed component [0, 4] reaches r = 0,
        # where dynamics.pericenter raises NoPericenterError (exit 2).  The
        # verdict needs only f's roots and that component: e_k = E/6 at
        # r_m = 0 and margin e1 - e3 = a (25 - 0)/2
        doc = json.loads(run_ok(["classify", "--r0", "1", "--v0", "1.2", "--gamma0-deg",
                                 gamma0_deg, "--alpha", "0.01", "--format", "json"]))
        assert (doc["verdict"], doc["tag"]) == ("bounded", "bounded-below-gap")
        lo, hi = doc["allowed_interval"]
        assert abs(lo) <= 1e-15 and hi == pytest.approx(4.0, rel=1e-14, abs=0.0)
        assert doc["threshold"] == pytest.approx(doc["energy"] / 6.0, rel=1e-14, abs=0.0)
        assert doc["margin"] == pytest.approx(0.125, rel=1e-14, abs=0.0)


class TestEscapeAlpha:
    @pytest.mark.parametrize("name", ["escape_alpha_worked", "escape_alpha_rosette"])
    def test_goldens_at_rounding_of_the_apse_threshold(self, name):
        # apse starts: alpha* = (v0^2/2 - 1/r0)^2 / (2 r0 v0^2) exactly, for
        # the doubles the CLI parses
        mp = pytest.importorskip("mpmath")
        argv, want = GOLDEN_JSON[name]
        r0, v0 = (float(argv[argv.index(k) + 1]) for k in ("--r0", "--v0"))
        with mp.workdps(40):
            r0, v0 = mp.mpf(r0), mp.mpf(v0)
            exact = (v0**2 / 2 - 1 / r0) ** 2 / (2 * r0 * v0**2)
            assert abs(want["alpha_star"] - exact) <= 2e-16 * exact

    def test_parabolic_family_escapes_at_zero(self):
        # E > 0 at alpha = 0: the threshold is exactly 0, which bisection
        # probes in 0 < alpha < 1e-12 used to fail on (the Kepler limit)
        argv = ["escape-alpha", "--r0", "1.4734618297053863",
                "--v0", "1.2119748394999497",
                "--gamma0-deg", "-57.62033099214291",
                "--alpha-lo", "-0.2", "--alpha-hi", "1.5", "--format", "json"]
        assert json.loads(run_ok(argv)) == {"alpha_star": 0.0}

    def test_bad_bracket_is_a_domain_error(self):
        code, _, err = run_cli(["escape-alpha", "--r0", "1.0", "--v0", "1.2",
                                "--alpha-lo", "0.03", "--alpha-hi", "0.05"])
        assert code == 2
        assert json.loads(err)["error"] == "BracketError"


def test_import_leaves_numpy_and_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(radialorbit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, radialorbit, radialorbit.cli; "
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout.strip() == "[]"
