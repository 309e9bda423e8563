"""Command-line front end: parse configuration, dispatch experiments and
optimizers, emit plot-ready CSV and JSON. Subcommands call public ``harness``
functions only; the optimizers' JSON payloads and the t grid live here."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, json_text, load_config, parse_override
from .harness import (
    EXPERIMENTS,
    device_count,
    pilot_objective,
    preset_run_config,
    run_asymptotic,
    run_experiment,
    write_outputs,
)
from .optimize import optimal_pilot_length

_Z_99 = 2.5758293035489004  # two-sided 99% normal quantile


def _key_epilog() -> str:
    rc = RunConfig()
    texts = {f"{section.name}.{f.name}": f.metadata["help"]
             for section in dataclasses.fields(rc)
             for f in dataclasses.fields(getattr(rc, section.name))}
    texts["experiment.id"] = "experiment id: " + " | ".join(EXPERIMENTS)
    width = max(map(len, texts))
    lines = ["configuration keys (override with --set key=value):"]
    for key, text in texts.items():
        lines.append(f"  {key.ljust(width)}  {text}")
    return "\n".join(lines)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (or a run manifest)")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--seed", type=int, default=None, help="override system.seed")
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (default: 1)",
    )
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key by dotted path (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lis-sim",
        description="Uplink simulator and analytical toolkit for large "
        "intelligent surfaces serving multiple devices.",
        epilog=_key_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, text in (
        ("simulate", "run the experiment named by the config"),
        ("asymptotic", "analytic SSE curves only (no receive sampling)"),
        ("optimize-t", "pilot-length search on the analytic objective"),
        ("optimize-k", "device-count search on the floor bound"),
        ("validate", "moment oracle: sampled means vs closed forms"),
    ):
        _add_common(sub.add_parser(name, help=text))

    p = sub.add_parser("reproduce", help="run a named experiment at its preset scale")
    p.add_argument("experiment", help="experiment id: " + ", ".join(EXPERIMENTS))
    _add_common(p)

    return parser


def _build_run_config(args, preset_id: str | None = None) -> RunConfig:
    if args.config:
        rc = load_config(args.config)
    elif preset_id is not None:
        rc = preset_run_config(preset_id)
    else:
        rc = RunConfig()
    overrides = dict(parse_override(text) for text in args.overrides)
    if args.seed is not None:
        overrides["system.seed"] = args.seed
    if overrides:
        rc = rc.with_overrides(overrides)
    return rc


def _write_result(args, result) -> int:
    for f in write_outputs(result, args.out):
        print(f)
    return 0


def _cmd_simulate(args) -> int:
    return _write_result(args, run_experiment(_build_run_config(args), args.workers))


def _cmd_asymptotic(args) -> int:
    return _write_result(args, run_asymptotic(_build_run_config(args), args.workers))


def _write_json(args, name: str, payload: dict) -> int:
    text = json_text(payload)
    print(text)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text + "\n", encoding="utf-8")
    return 0


def _cmd_optimize_t(args) -> int:
    """Theorem 1 SSE of panel 0 on placement 0, block 0, over the pilot length."""
    rc = _build_run_config(args)
    cfg = rc.system
    sol = optimal_pilot_length(pilot_objective(rc), cfg.T, cfg.K)
    ts = sorted(set(range(cfg.K, cfg.T + 1, max(1, (cfg.T - cfg.K) // 64))) | {cfg.K, cfg.T})
    return _write_json(args, "optimize_t.json", {
        "t_opt": sol.t_opt,
        "objective": sol.objective_opt,
        "curve": [[t, sol.values[t - cfg.K]] for t in ts],
    })


def _cmd_optimize_k(args) -> int:
    """Theorem 2 floor NSE over the device count on placement 0's pool."""
    sol, pool = device_count(_build_run_config(args))
    return _write_json(args, "optimize_k.json", {**dataclasses.asdict(sol), "pool": pool.K})


def _cmd_validate(args) -> int:
    rc = _build_run_config(args, preset_id="oracle")
    rc = dataclasses.replace(rc, experiment=dataclasses.replace(rc.experiment, id="oracle"))
    result = run_experiment(rc, args.workers)
    write_outputs(result, args.out)
    ok = True
    for entry in result.extras["placements"]:
        for row in entry["oracle"]:
            for term in ("X", "Y_total", "Z", "I"):
                stats = row[term]
                exact = term in ("X", "Z", "I")
                passed = abs(stats["z"]) <= _Z_99 if exact else True
                ok = ok and passed
                status = "PASS" if passed else "FAIL"
                kind = "99% CI" if exact else "reported"
                print(
                    f"M={row['M']:>4} {term:<8} closed={stats['closed']:.6g} "
                    f"sampled={stats['mc_mean']:.6g} z={stats['z']:+.2f} "
                    f"rel_err={stats['rel_err']:.4%} [{kind}] {status}"
                )
    print("validate:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_reproduce(args) -> int:
    rc = _build_run_config(args, preset_id=args.experiment)
    if rc.experiment.id != args.experiment:
        raise ConfigError(
            f"reproduce target {args.experiment!r} conflicts with experiment.id "
            f"{rc.experiment.id!r}",
            "experiment.id",
        )
    return _write_result(args, run_experiment(rc, args.workers))


_COMMANDS = {
    "simulate": _cmd_simulate,
    "asymptotic": _cmd_asymptotic,
    "optimize-t": _cmd_optimize_t,
    "optimize-k": _cmd_optimize_k,
    "validate": _cmd_validate,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except ConfigError as exc:
        key = exc.key or "unknown key"
        print(f"config error ({key}): {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
