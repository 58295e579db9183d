"""Command-line frontend: simulation, estimation, tests, and MC studies.

Five subcommands wire the library into reproducible file pipelines:
``simulate`` writes a pattern CSV plus a sidecar config echo, ``kfun``
writes a K-estimate jump table, ``gof`` and ``twosample`` write test
report JSON, and ``mc`` runs a study config to a report JSON + CSV.

Exit codes: 0 = analysis completed (ACCEPT or REJECT), 1 = usage or
config error, 2 = REJECT under --fail-on-reject, 3 = MC verdict failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import gof
from .estimate import k_hat
from .geometry import (
    BodyShape,
    Box,
    Disk,
    StructuringBody,
    body_to_config,
    window_to_config,
)
from .mcharness import StudyConfig, run_study
from .pattern import load_pattern, save_pattern
from .simulate import (
    MaternClusterModel,
    PoissonModel,
    SeedSpec,
    ThomasModel,
    k_function,
    k_function_from_table,
    model_to_config,
    simulate,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _CliError(message)


class _CliError(ValueError):
    pass


def _parse_window(text: str):
    kind, _, rest = text.partition(":")
    try:
        values = [float(v) for v in rest.split(",")] if rest else []
    except ValueError:
        raise _CliError(f"window spec has non-numeric coordinates: {text!r}")
    if kind == "box":
        if len(values) < 2 or len(values) % 2:
            raise _CliError(
                "box window needs an even coordinate list: "
                "box:lo_1,..,lo_d,hi_1,..,hi_d"
            )
        d = len(values) // 2
        return Box(values[:d], values[d:])
    if kind == "disk":
        if len(values) != 3:
            raise _CliError("disk window spec is disk:cx,cy,radius")
        return Disk(values[:2], values[2])
    raise _CliError(f"unknown window kind {kind!r}; expected box: or disk:")


def _parse_ball(text: str, dimension: int) -> StructuringBody:
    name, _, scale_text = text.partition(":")
    try:
        shape = BodyShape(name)
    except ValueError:
        raise _CliError(f"unknown ball {name!r}; expected l1, l2 or linf")
    scale = 1.0
    if scale_text:
        try:
            scale = float(scale_text)
        except ValueError:
            raise _CliError(f"ball scale must be numeric, got {scale_text!r}")
    return StructuringBody(dimension, shape, scale)


def _parse_weight_V(text: str | None) -> gof.IntegralWeight:
    if text is None:
        return gof.IntegralWeight()
    name, _, param = text.partition(":")
    if name == "lebesgue":
        if param:
            raise _CliError("lebesgue weight takes no parameter")
        return gof.IntegralWeight()
    if name == "exp_density":
        if not param:
            raise _CliError("exp_density weight needs a rate: exp_density:b")
        return gof.IntegralWeight("exp_density", float(param))
    raise _CliError(f"unknown integral weight {name!r}")


def _parse_weight_v(text: str | None) -> gof.SupWeight:
    if text is None:
        return gof.SupWeight()
    name, _, param = text.partition(":")
    if name == "const_one":
        if param:
            raise _CliError("const_one weight takes no parameter")
        return gof.SupWeight()
    if name == "exp_decay":
        if not param:
            raise _CliError("exp_decay weight needs a rate: exp_decay:a")
        return gof.SupWeight("exp_decay", float(param))
    raise _CliError(f"unknown sup weight {name!r}")


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _build_model(args):
    if args.model == "poisson":
        if args.intensity is None:
            raise _CliError("poisson model requires --lambda")
        return PoissonModel(args.intensity)
    if args.model == "thomas":
        if None in (args.kappa, args.mu, args.sigma_c):
            raise _CliError("thomas model requires --kappa, --mu and --sigma-c")
        return ThomasModel(args.kappa, args.mu, args.sigma_c)
    if args.model == "matern_cluster":
        if None in (args.kappa, args.mu, args.r_c):
            raise _CliError("matern_cluster model requires --kappa, --mu and --r-c")
        return MaternClusterModel(args.kappa, args.mu, args.r_c)
    raise _CliError(f"unknown model {args.model!r}")


def _load_null_k(path: str, dimension: int):
    rows = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise _CliError(
                    f"{path}:{lineno}: expected two columns r,K0"
                )
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                if lineno == 1:
                    continue  # header line
                raise _CliError(f"{path}:{lineno}: non-numeric entry")
    if not rows:
        raise _CliError(f"{path}: no K-function rows found")
    radii = [r for r, _ in rows]
    values = [v for _, v in rows]
    return k_function_from_table(radii, values, dimension=dimension)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    model = _build_model(args)
    window = _parse_window(args.window)
    seed = SeedSpec(args.seed, args.stream)
    pattern = simulate(model, window, seed)
    out = Path(args.out)
    save_pattern(pattern, out)
    meta = {
        "schema_version": 1,
        "command": "simulate",
        "model": model_to_config(model),
        "window": window_to_config(window),
        "seed": {"master_seed": args.seed, "stream_index": args.stream},
        "n_points": len(pattern),
        "created_utc": _utc_now(),
    }
    _write_json(out.with_suffix(out.suffix + ".meta.json"), meta)
    print(f"wrote {len(pattern)} points to {out}")
    return 0


def _cmd_kfun(args) -> int:
    window = _parse_window(args.window)
    body = _parse_ball(args.ball, window.dimension)
    if args.pattern_window is not None:
        pattern_window = _parse_window(args.pattern_window)
    else:
        pattern_window = window
    pattern = load_pattern(args.pattern, pattern_window)
    if args.estimator == "naive":
        estimate = k_hat(pattern, body, args.rmax, kind="naive", window=window)
    else:
        estimate = k_hat(pattern, body, args.rmax, kind=args.estimator)
    out = Path(args.out)
    estimate.to_csv(out)
    meta = {
        "schema_version": 1,
        "command": "kfun",
        "estimator": args.estimator,
        "ball": body_to_config(body),
        "r_max": args.rmax,
        "window": window_to_config(window),
        "pattern_window": window_to_config(pattern_window),
        "pattern_path": str(args.pattern),
        "n_points": len(pattern),
        "created_utc": _utc_now(),
    }
    _write_json(out.with_suffix(out.suffix + ".meta.json"), meta)
    print(f"wrote K-estimate with {estimate.jump_radii.size} jumps to {out}")
    return 0


def _finish_report(report, args) -> int:
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"{report.test}: statistic={report.statistic:.6g} "
              f"p={report.p_value:.4g} {report.decision} -> {args.out}")
    else:
        sys.stdout.write(text)
    if args.fail_on_reject and report.decision == "REJECT":
        return 2
    return 0


def _cmd_gof(args) -> int:
    window = _parse_window(args.window)
    body = _parse_ball(args.ball, window.dimension)
    if args.pattern_window is not None:
        pattern_window = _parse_window(args.pattern_window)
    else:
        pattern_window = window
    pattern = load_pattern(args.pattern, pattern_window)
    if args.lambda0 is None:
        raise _CliError("--lambda0 is required (the null intensity is known)")
    if args.null == "poisson":
        null_k = k_function(PoissonModel(args.lambda0), body)
    else:
        if args.null_k is None:
            raise _CliError("--null-k FILE is required for --null table")
        null_k = _load_null_k(args.null_k, window.dimension)
    radii = None
    if args.radii:
        radii = [float(v) for v in args.radii.split(",")]
    extra = {"inputs": {"pattern_path": str(args.pattern)}}
    kwargs = dict(
        gamma=args.gamma,
        estimator=args.estimator,
        kernel=args.kernel,
        bandwidth=args.bandwidth,
        clamp=args.clamp,
        extra_config=extra,
    )
    if args.estimator == "naive":
        kwargs["window"] = window
    if args.stat == "ks":
        report = gof.ks_statistic(
            pattern, body, args.lambda0, null_k, args.alpha, args.R,
            weight=_parse_weight_v(args.weight_v), **kwargs,
        )
    elif args.stat == "cvm":
        report = gof.cvm_statistic(
            pattern, body, args.lambda0, null_k, args.alpha, args.R,
            weight=_parse_weight_V(args.weight_V), **kwargs,
        )
    else:
        report = gof.chi2_statistic(
            pattern, body, args.lambda0, null_k, args.alpha, args.R,
            radii=radii, **kwargs,
        )
    return _finish_report(report, args)


def _cmd_twosample(args) -> int:
    window_a = _parse_window(args.window_a or args.window)
    window_b = _parse_window(args.window_b or args.window)
    body = _parse_ball(args.ball, window_a.dimension)
    pa = load_pattern(args.pattern_a, window_a)
    pb = load_pattern(args.pattern_b, window_b)
    extra = {"inputs": {
        "pattern_a": str(args.pattern_a), "pattern_b": str(args.pattern_b),
    }}
    kwargs = dict(
        gamma=args.gamma,
        estimator=args.estimator,
        kernel=args.kernel,
        bandwidth=args.bandwidth,
        clamp=args.clamp,
        extra_config=extra,
    )
    if args.stat == "ks":
        report = gof.two_sample_ks(
            pa, pb, body, args.alpha, args.R,
            weight=_parse_weight_v(args.weight_v), **kwargs,
        )
    else:
        report = gof.two_sample_cvm(
            pa, pb, body, args.alpha, args.R,
            weight=_parse_weight_V(args.weight_V), **kwargs,
        )
    return _finish_report(report, args)


def _cmd_mc(args) -> int:
    cfg_path = Path(args.config)
    try:
        cfg_data = json.loads(cfg_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise _CliError(f"{cfg_path}: invalid JSON: {exc}")
    config = StudyConfig.from_config(cfg_data)
    report = run_study(config)
    out = Path(args.out) if args.out else cfg_path.with_suffix(".report.json")
    out.write_text(report.to_json(), encoding="utf-8")
    csv_path = out.with_suffix(".csv")
    csv_path.write_text(report.to_csv(), encoding="utf-8")
    status = "PASS" if report.passed else "FAIL"
    print(f"{config.study}: {status} "
          f"({sum(c['passed'] for c in report.checks)}/{len(report.checks)} "
          f"checks) -> {out}")
    if not report.passed:
        for c in report.checks:
            if not c["passed"]:
                print(
                    f"  failed {c['name']}: {c['value']:.6g} "
                    f"{c['comparison']} {c['bound']:.6g}",
                    file=sys.stderr,
                )
        return 3
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _add_test_flags(sp, two_sample: bool):
    sp.add_argument("--ball", default="l2",
                    help="structuring body: l1|l2|linf[:scale] (default l2)")
    sp.add_argument("--alpha", type=float, default=0.5,
                    help="scaling exponent in (0, 1/2] (default 0.5)")
    sp.add_argument("--R", type=float, required=True,
                    help="upper end of the scaled radius interval")
    sp.add_argument("--gamma", type=float, default=0.05,
                    help="significance level (default 0.05)")
    sp.add_argument("--weight-V", dest="weight_V", default=None,
                    help="integral weight: lebesgue | exp_density:b")
    sp.add_argument("--weight-v", dest="weight_v", default=None,
                    help="sup weight: const_one | exp_decay:a")
    sp.add_argument("--kernel", choices=["indicator", "triangular"],
                    default="indicator", help="variance-estimator kernel")
    sp.add_argument("--bandwidth", type=float, default=None,
                    help="variance-estimator bandwidth (default |W|^(-3/(4d)))")
    sp.add_argument("--clamp", action="store_true",
                    help="substitute max(sigma2_hat, lambda_hat) when the "
                         "variance estimate is not positive")
    sp.add_argument("--fail-on-reject", action="store_true",
                    help="exit 2 when the decision is REJECT")
    sp.add_argument("--out", default=None,
                    help="report JSON path (default: stdout)")
    if two_sample:
        sp.add_argument("--estimator", choices=["ht", "border"], default="ht")
    else:
        sp.add_argument("--estimator", choices=["ht", "naive", "border"],
                        default="ht")


def build_parser() -> _Parser:
    parser = _Parser(prog="kscope",
                     description="Generalized K-function estimation and "
                                 "asymptotic goodness-of-fit tests")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="simulate a point pattern to CSV")
    sp.add_argument("--model", required=True,
                    choices=["poisson", "thomas", "matern_cluster"])
    sp.add_argument("--lambda", dest="intensity", type=float, default=None,
                    help="Poisson intensity")
    sp.add_argument("--kappa", type=float, default=None, help="parent intensity")
    sp.add_argument("--mu", type=float, default=None,
                    help="mean offspring per parent")
    sp.add_argument("--sigma-c", dest="sigma_c", type=float, default=None,
                    help="Gaussian displacement scale (thomas)")
    sp.add_argument("--r-c", dest="r_c", type=float, default=None,
                    help="cluster disk radius (matern_cluster)")
    sp.add_argument("--window", required=True,
                    help="box:lo1,..,lod,hi1,..,hid or disk:cx,cy,r")
    sp.add_argument("--seed", type=int, required=True, help="master seed")
    sp.add_argument("--stream", type=int, default=0,
                    help="stream index (default 0)")
    sp.add_argument("--out", required=True, help="pattern CSV path")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("kfun", help="estimate the K-function jump table")
    sp.add_argument("--pattern", required=True, help="pattern CSV path")
    sp.add_argument("--window", required=True, help="observation window")
    sp.add_argument("--pattern-window", default=None,
                    help="window containing the pattern when it extends "
                         "beyond --window (plus-sampling for naive)")
    sp.add_argument("--ball", default="l2", help="l1|l2|linf[:scale]")
    sp.add_argument("--rmax", type=float, required=True,
                    help="largest gauge radius")
    sp.add_argument("--estimator", choices=["ht", "naive", "border"],
                    default="ht")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(func=_cmd_kfun)

    sp = sub.add_parser("gof", help="one-sample goodness-of-fit test")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--window", required=True)
    sp.add_argument("--pattern-window", default=None,
                    help="extended window for the naive estimator")
    sp.add_argument("--null", choices=["poisson", "table"], default="poisson",
                    help="null K-function: poisson or a table file")
    sp.add_argument("--lambda0", type=float, default=None,
                    help="hypothesized intensity (required)")
    sp.add_argument("--null-k", dest="null_k", default=None,
                    help="CSV of r,K0(r) knots for --null table")
    sp.add_argument("--stat", choices=["ks", "cvm", "chi2"], required=True)
    sp.add_argument("--radii", default=None,
                    help="comma-separated chi2 radii in the scaled domain")
    _add_test_flags(sp, two_sample=False)
    sp.set_defaults(func=_cmd_gof)

    sp = sub.add_parser("twosample", help="two-sample equality test")
    sp.add_argument("--pattern-a", required=True)
    sp.add_argument("--pattern-b", required=True)
    sp.add_argument("--window", default=None,
                    help="window for both patterns")
    sp.add_argument("--window-a", default=None)
    sp.add_argument("--window-b", default=None)
    sp.add_argument("--stat", choices=["ks", "cvm"], required=True)
    _add_test_flags(sp, two_sample=True)
    sp.set_defaults(func=_cmd_twosample)

    sp = sub.add_parser("mc", help="run a Monte-Carlo study config")
    sp.add_argument("config", help="StudyConfig JSON path")
    sp.add_argument("--out", default=None,
                    help="report JSON path (default: <config>.report.json; "
                         "a CSV summary is written next to it)")
    sp.set_defaults(func=_cmd_mc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "twosample":
            if args.window is None and (args.window_a is None or args.window_b is None):
                raise _CliError("provide --window or both --window-a/--window-b")
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
