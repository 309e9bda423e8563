"""Command-line front end: parse configuration, dispatch experiments and
optimizers, emit plot-ready CSV and JSON."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .asymptotics import build_moment_set, theorem1_sse
from .config import CONFIG_KEY_HELP, ConfigError, RunConfig, load_config, parse_override
from .harness import (
    interference_regime,
    preset_run_config,
    run_asymptotic,
    run_experiment,
    write_outputs,
)
from .links import LinkWorld, block_rng, draw_unit_block, make_unit_stats, placement_rng
from .optimize import expected_floor_table, optimal_num_devices, optimal_pilot_length
from .scenario import place_devices

_Z_99 = 2.5758293035489004  # two-sided 99% normal quantile


def _key_epilog() -> str:
    width = max(len(key) for key, _ in CONFIG_KEY_HELP)
    lines = ["configuration keys (override with --set key=value):"]
    for key, text in CONFIG_KEY_HELP:
        lines.append(f"  {key.ljust(width)}  {text}")
    return "\n".join(lines)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (or a run manifest)")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--seed", type=int, default=None, help="override system.seed")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: LIS_SIM_WORKERS or 1)",
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

    p = sub.add_parser("simulate", help="run the experiment named by the config")
    _add_common(p)

    p = sub.add_parser("asymptotic", help="analytic SSE curves only (no receive sampling)")
    _add_common(p)

    p = sub.add_parser("optimize-t", help="pilot-length search on the analytic objective")
    _add_common(p)

    p = sub.add_parser("optimize-k", help="device-count search on the floor bound")
    _add_common(p)

    p = sub.add_parser("validate", help="moment oracle: sampled means vs closed forms")
    _add_common(p)

    p = sub.add_parser("reproduce", help="run a named experiment at its preset scale")
    p.add_argument("experiment", help="experiment id (fig4..fig9, fig6b, oracle)")
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


def _cmd_simulate(args) -> int:
    rc = _build_run_config(args)
    result = run_experiment(rc, args.workers)
    files = write_outputs(result, args.out)
    for f in files:
        print(f)
    return 0


def _cmd_asymptotic(args) -> int:
    rc = _build_run_config(args)
    result = run_asymptotic(rc, args.workers)
    files = write_outputs(result, args.out)
    for f in files:
        print(f)
    return 0


def _theory_moment_sets(rc: RunConfig):
    """Moment sets of panel 0 on placement 0, block 0: the analytic
    objective used by the optimizer front ends."""
    cfg = rc.system
    regime = interference_regime(rc.experiment)
    dep = place_devices(cfg, rc.layout, placement_rng(cfg.seed, 0), placement=rc.placement)
    world = LinkWorld(dep, cfg)
    t = cfg.pilot_len
    sets = []
    for k in range(cfg.K):
        rng = block_rng(cfg.seed, 0, 0, 0, k)
        draw = draw_unit_block(rng, cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(world.unit(0, k), draw, cfg, regime)
        sets.append(
            build_moment_set(
                stats, t, world.rho_p, world.rho_d,
                z_own=dep.devices_local[0, k, 2], L=cfg.L,
            )
        )
    return sets


def _cmd_optimize_t(args) -> int:
    rc = _build_run_config(args)
    cfg = rc.system
    sets = _theory_moment_sets(rc)
    sol = optimal_pilot_length(sets, cfg.T, cfg.K, cfg.M)
    ts = sorted(set(range(cfg.K, cfg.T + 1, max(1, (cfg.T - cfg.K) // 64))) | {cfg.K, cfg.T})
    curve = [[int(t), theorem1_sse(sets, t, cfg.T).sse_bar] for t in ts]
    payload = {
        "t_opt": sol.t_opt,
        "objective": sol.objective_opt,
        "curve": curve,
        "t_opt_continuous": sol.t_opt_continuous,
        "iterations": sol.iterations,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "optimize_t.json").write_text(text + "\n", encoding="utf-8")
    return 0


def _cmd_optimize_k(args) -> int:
    rc = _build_run_config(args)
    cfg = rc.system
    regime = interference_regime(rc.experiment)
    dep = place_devices(
        cfg, rc.layout, placement_rng(cfg.seed, 0),
        placement=rc.placement, K=rc.placement.pool_target(cfg.T), allow_partial=True,
    )
    table = expected_floor_table(dep, cfg, regime=regime)
    sol = optimal_num_devices(table.gamma_hat, cfg.T, K_values=range(1, dep.K + 1))
    payload = sol.trace()
    payload["pool"] = dep.K
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "optimize_k.json").write_text(text + "\n", encoding="utf-8")
    return 0


def _cmd_validate(args) -> int:
    rc = _build_run_config(args, preset_id="oracle")
    if rc.experiment.id != "oracle":
        rc = dataclasses.replace(
            rc, experiment=dataclasses.replace(rc.experiment, id="oracle")
        )
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
    result = run_experiment(rc, args.workers)
    files = write_outputs(result, args.out)
    for f in files:
        print(f)
    return 0


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
