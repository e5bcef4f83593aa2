"""Command-line interface: regenerate any paper artifact from the shell.

Usage (module form)::

    python -m repro fig2a --scale small --horizon 1000
    python -m repro fig3 --workers 0
    python -m repro run --policies Oracle LFSC Random --plot
    python -m repro run --trace results/trace.jsonl --trace-sample 10
    python -m repro trace results/trace.jsonl
    python -m repro ablations --study lagrangian
    python -m repro replicate --seeds 8 --policies LFSC vUCB Random
    python -m repro report --manifest
    python -m repro scenarios list
    python -m repro run --scenario vehicular

Scenarios (DESIGN.md §11): ``repro scenarios list`` / ``describe NAME``
inspect the declarative scenario registry, and every run-type subcommand
accepts ``--scenario NAME_OR_PATH`` (a registered name or a TOML/JSON
scenario config file) in place of ``--scale``.

Sweeps and replications are process-parallel by default (``--workers 0`` =
one process per CPU core, with serial fallback on single-core hosts); pass
``--workers 1`` to force serial execution — per-seed results are
bit-identical either way (see DESIGN.md, "Determinism contract").

Every subcommand prints the same rows/series the paper reports (via the
harnesses in :mod:`repro.experiments.figures`) and can render an ASCII chart
(``--plot``) or persist raw series (``--save PATH``).

Observability (DESIGN.md §7): ``--trace PATH`` records one structured JSONL
record per slot (``--trace-sample N`` keeps every N-th) without perturbing
results — trajectories are bit-identical with tracing on or off; a ``.gz``
suffix gzip-compresses the trace transparently and a ``.zl`` suffix writes
seekable zlib frames; ``repro trace PATH`` summarizes a recorded file
(compressed or not — the format is sniffed from the file's magic bytes).
Persisted artifacts (``--save``, ``report``, ``replicate``) emit a
``manifest.json`` capturing config, seeds, git SHA, host, and library
versions.

Cross-run reuse (DESIGN.md §9): ``--cache-dir DIR`` persists the Oracle
solver cache on disk across runs and sessions (``$REPRO_CACHE_DIR`` is the
environment fallback), and ``--shared-window/--no-shared-window`` toggles
the cross-replication window cache — both bit-identical, only faster.

Every run-type subcommand shares one option group (declared once in
:func:`_add_run_options`): ``--scale/--scenario/--horizon/--seed/--workers/--window/
--trace/--trace-sample/--manifest-dir/--cache-dir/--shared-window/
--no-shared-window`` plus ``--plot/--save``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.ascii_plot import ascii_plot
from repro.experiments.ablations import (
    ablation_adaptive_partition,
    ablation_assignment_mode,
    ablation_lagrangian,
    ablation_partition_granularity,
)
from repro.experiments.figures import (
    FigureOutput,
    fig2_violations,
    fig2a_cumulative_reward,
    fig2b_per_slot_reward,
    fig3_alpha_sweep,
    fig4_likelihood_sweep,
    performance_ratio_table,
)
from repro.experiments.io import save_results
from repro.experiments.runner import (
    ExperimentConfig,
    run_experiment,
)
from repro.metrics.summary import comparison_rows
from repro.policies import DEFAULT_POLICIES

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "scenario", None) is not None:
        from repro import scenarios

        cfg = scenarios.resolve_scenario(args.scenario).config()
    else:
        cfg = (
            ExperimentConfig.paper()
            if args.scale == "paper"
            else ExperimentConfig.small()
        )
    overrides = {}
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "window", None) is not None:
        overrides["window"] = args.window
    if getattr(args, "cache_dir", None) is not None:
        overrides["cache_dir"] = args.cache_dir
    if getattr(args, "shared_window", None) is not None:
        overrides["shared_window"] = args.shared_window
    if overrides:
        cfg = cfg.with_overrides(**overrides)
    return cfg


def _emit(out: FigureOutput, args: argparse.Namespace, cfg: ExperimentConfig | None = None) -> None:
    print(out.table())
    if args.plot and out.series:
        plot_series = {
            k: v for k, v in out.series.items() if k != "x"
        }
        print()
        print(ascii_plot(plot_series, title=out.name))
    if args.save and out.results is not None:
        npz, js = save_results(out.results, args.save, config=cfg)
        print(f"\nsaved raw series: {npz}, {js} (+ manifest)")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """The one shared option group every run-type subcommand inherits.

    Declared once so ``run``, the figure harnesses, ``ablations``,
    ``report``, and ``replicate`` stay option-compatible; the trace
    subcommand is the only one that opts out (it reads traces, it does not
    produce them).
    """
    parser.add_argument("--scale", choices=("small", "paper"), default="small")
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME_OR_PATH",
        help="run a registered scenario (see `repro scenarios list`) or a "
        "TOML/JSON scenario config file; takes precedence over --scale",
    )
    parser.add_argument("--horizon", type=_positive_int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--workers", type=_non_negative_int, default=0, help="0 = all CPUs, 1 = serial"
    )
    parser.add_argument(
        "--window",
        type=_non_negative_int,
        default=None,
        metavar="W",
        help="slot-streaming window: precompute W slots at a time "
        "(0 = per-slot, default = simulator's choice; results are "
        "bit-identical for every W)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist the Oracle solver cache to DIR across runs "
        "(DESIGN.md §9; default: $REPRO_CACHE_DIR, else memory-only; "
        "results are bit-identical either way)",
    )
    parser.add_argument(
        "--shared-window",
        dest="shared_window",
        action="store_true",
        default=None,
        help="share precomputed slot windows across policies, sweep points, "
        "and worker processes (DESIGN.md §9; the default)",
    )
    parser.add_argument(
        "--no-shared-window",
        dest="shared_window",
        action="store_false",
        help="disable the shared window cache; results are bit-identical, "
        "only slower on sweeps",
    )
    parser.add_argument("--plot", action="store_true", help="render an ASCII chart")
    parser.add_argument("--save", default=None, help="persist raw series to PATH.{npz,json}")
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a structured JSONL slot trace to PATH (off by default; "
        "a .gz suffix gzip-compresses the file, a .zl suffix writes "
        "zlib frames)",
    )
    parser.add_argument(
        "--trace-sample",
        type=_positive_int,
        default=1,
        metavar="N",
        help="record every N-th slot (default 1 = all slots)",
    )
    parser.add_argument(
        "--manifest-dir",
        default=None,
        metavar="DIR",
        help="write DIR/manifest.json with the run's provenance "
        "(replicate defaults to results/)",
    )


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    _add_run_options(common)

    parser = argparse.ArgumentParser(
        prog="repro",
        description="LFSC reproduction — regenerate the paper's evaluation artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", parents=[common], help="run a policy comparison and print the summary"
    )
    run_p.add_argument(
        "--policies",
        nargs="+",
        default=list(DEFAULT_POLICIES),
        help="registry policy specs — names (LFSC, vUCB) or parameterized "
        "forms like 'linucb(alpha=0.5)'; see 'repro policies list'",
    )

    for name, help_text in (
        ("fig2a", "cumulative compound reward (Fig. 2a)"),
        ("fig2b", "per-slot compound reward (Fig. 2b)"),
        ("fig2-violations", "cumulative violations + early ratios"),
        ("ratio", "performance ratio table (§5)"),
    ):
        sub.add_parser(name, parents=[common], help=help_text)

    fig3_p = sub.add_parser("fig3", parents=[common], help="alpha sweep (Fig. 3)")
    fig3_p.add_argument(
        "--alpha-fractions",
        nargs="+",
        type=float,
        default=[0.65, 0.70, 0.75, 0.80, 0.85],
    )

    fig4_p = sub.add_parser("fig4", parents=[common], help="likelihood-range sweep (Fig. 4)")
    fig4_p.add_argument("--v-lows", nargs="+", type=float, default=[0.0, 0.25, 0.5, 0.75])

    abl_p = sub.add_parser("ablations", parents=[common], help="LFSC design-choice ablations")
    abl_p.add_argument(
        "--study",
        choices=("lagrangian", "assignment", "partition", "adaptive", "all"),
        default="all",
    )

    rep_p = sub.add_parser(
        "report", parents=[common], help="run the harnesses and write a markdown report"
    )
    rep_p.add_argument("--out", default="results/report.md")
    rep_p.add_argument(
        "--manifest",
        action="store_true",
        help="also print the run manifest (always written next to --out)",
    )

    trace_p = sub.add_parser(
        "trace", help="summarize or diff JSONL slot traces recorded with --trace"
    )
    trace_p.add_argument("path", help="trace file (one JSON record per line)")
    trace_p.add_argument(
        "path_b",
        nargs="?",
        default=None,
        help="second trace file (with --diff: compare slot by slot)",
    )
    trace_p.add_argument(
        "--diff",
        action="store_true",
        help="compare two traces: first divergent slot and per-field deltas",
    )
    trace_p.add_argument(
        "--validate",
        action="store_true",
        help="check every record against the trace schema before summarizing",
    )

    serve_p = sub.add_parser(
        "serve",
        parents=[common],
        help="run the online offloading daemon (DESIGN.md §10)",
    )
    serve_p.add_argument("--policy", default="LFSC", help="policy to serve (default LFSC)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=0, help="0 = OS-assigned")
    serve_p.add_argument(
        "--checkpoint",
        dest="checkpoint_path",
        default=None,
        metavar="PATH",
        help="repro-checkpoint/v1 file for autosaves and the stop checkpoint",
    )
    serve_p.add_argument(
        "--checkpoint-every",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help="autosave every N served slots (requires --checkpoint)",
    )
    serve_p.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="restore the session from a checkpoint instead of starting fresh "
        "(config and policy come from the snapshot)",
    )
    serve_p.add_argument(
        "--drive",
        type=int,
        default=None,
        metavar="N",
        help="serve N synthetic decisions in-process, then checkpoint (if "
        "configured) and exit — no socket client needed",
    )

    scen_p = sub.add_parser(
        "scenarios",
        help="list or describe the registered scenario families (DESIGN.md §11)",
    )
    scen_sub = scen_p.add_subparsers(dest="scenario_command", required=True)
    scen_list = scen_sub.add_parser("list", help="one line per registered scenario")
    scen_list.add_argument("--tag", default=None, help="only scenarios carrying this tag")
    scen_desc = scen_sub.add_parser(
        "describe", help="params, defaults, tags, and content hash of one scenario"
    )
    scen_desc.add_argument("name", help="registered scenario name")

    pol_p = sub.add_parser(
        "policies",
        help="list or describe the registered offloading policies (DESIGN.md §13)",
    )
    pol_sub = pol_p.add_subparsers(dest="policy_command", required=True)
    pol_list = pol_sub.add_parser("list", help="one line per registered policy")
    pol_list.add_argument("--tag", default=None, help="only policies carrying this tag")
    pol_desc = pol_sub.add_parser(
        "describe", help="description, tags, and parameter schema of one policy"
    )
    pol_desc.add_argument("name", help="registered policy name")

    ckpt_p = sub.add_parser(
        "checkpoint", help="verify a repro-checkpoint/v1 file and print its summary"
    )
    ckpt_p.add_argument("path", help="checkpoint file to inspect")

    res_p = sub.add_parser(
        "resume",
        help="restore a session from a checkpoint and run it forward",
    )
    res_p.add_argument("path", help="checkpoint file to resume from")
    res_p.add_argument(
        "--slots",
        type=int,
        default=None,
        metavar="N",
        help="slots to advance (default: to the snapshot's horizon)",
    )
    res_p.add_argument(
        "--checkpoint",
        dest="checkpoint_out",
        default=None,
        metavar="PATH",
        help="write a fresh checkpoint after advancing",
    )

    fleet_p = sub.add_parser(
        "fleet",
        help="sharded metro-scale fleet run (DESIGN.md §12)",
    )
    fleet_p.add_argument(
        "--tiles",
        default="2x2",
        metavar="WxH",
        help="tile grid, e.g. 4x4 (default 2x2)",
    )
    fleet_p.add_argument("--scns-per-tile", type=_positive_int, default=8)
    fleet_p.add_argument("--wds-per-tile", type=_positive_int, default=120)
    fleet_p.add_argument(
        "--coverage",
        choices=("mobility", "sampler"),
        default="mobility",
        help="mobility = coupled tiles with border exchange; "
        "sampler = independent tiles (no-exchange fast path)",
    )
    fleet_p.add_argument("--shards", type=_positive_int, default=1)
    fleet_p.add_argument(
        "--mode",
        choices=("auto", "serial", "process"),
        default="auto",
        help="shard execution mode (auto: processes when shards >= 2)",
    )
    fleet_p.add_argument("--horizon", type=_positive_int, default=200)
    fleet_p.add_argument("--seed", type=int, default=0)
    fleet_p.add_argument("--truth-seed", type=int, default=7)
    fleet_p.add_argument("--policy", default="LFSC")
    fleet_p.add_argument(
        "--window",
        type=_non_negative_int,
        default=None,
        help="slot-streaming window (default: simulator default; 0 = per-slot)",
    )
    fleet_p.add_argument("--exchange-every", type=_positive_int, default=16)
    fleet_p.add_argument(
        "--mbs-capacity",
        type=_non_negative_int,
        default=0,
        help="per-tile MBS fallback admission limit (0 disables the tier)",
    )
    fleet_p.add_argument(
        "--verify",
        action="store_true",
        help="re-run unsharded and assert bit-identical per-tile series",
    )
    fleet_p.add_argument(
        "--json",
        action="store_true",
        help="print the summary + per-shard latency as JSON",
    )

    repl_p = sub.add_parser(
        "replicate",
        parents=[common],
        help="multi-seed replication with confidence intervals (parallel by default)",
    )
    repl_p.add_argument(
        "--policies",
        nargs="+",
        default=list(DEFAULT_POLICIES),
        help="registry policy specs — names (LFSC, vUCB) or parameterized "
        "forms like 'linucb(alpha=0.5)'; see 'repro policies list'",
    )
    repl_p.add_argument(
        "--seeds",
        type=_positive_int,
        default=5,
        help="replication count; seeds derive from --seed via the frozen stream contract",
    )
    repl_p.add_argument(
        "--seed-list",
        nargs="+",
        type=int,
        default=None,
        help="explicit seeds (overrides --seeds; used verbatim)",
    )
    return parser


def _dispatch(args: argparse.Namespace, cfg: ExperimentConfig, workers: int) -> int:
    if getattr(args, "policies", None) is not None:
        # Fail closed before any simulation work: every spec must name a
        # registered policy with well-typed parameters.
        from repro import policies as policy_registry

        try:
            args.policies = list(policy_registry.normalize_specs(args.policies))
        except policy_registry.PolicyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.command == "run":
        results = run_experiment(cfg, tuple(args.policies), workers=workers)
        out = FigureOutput(
            name="run",
            series={n: r.cumulative_reward for n, r in results.items()},
            rows=comparison_rows(results),
            results=results,
        )
        _emit(out, args, cfg)
    elif args.command == "fig2a":
        _emit(fig2a_cumulative_reward(cfg, workers=workers), args, cfg)
    elif args.command == "fig2b":
        _emit(fig2b_per_slot_reward(cfg, workers=workers), args, cfg)
    elif args.command == "fig2-violations":
        _emit(fig2_violations(cfg, workers=workers), args, cfg)
    elif args.command == "ratio":
        _emit(performance_ratio_table(cfg, workers=workers), args, cfg)
    elif args.command == "fig3":
        alphas = tuple(round(f * cfg.capacity, 3) for f in args.alpha_fractions)
        _emit(fig3_alpha_sweep(cfg, alphas=alphas, workers=workers), args, cfg)
    elif args.command == "fig4":
        _emit(
            fig4_likelihood_sweep(cfg, v_lows=tuple(args.v_lows), workers=workers),
            args,
            cfg,
        )
    elif args.command == "ablations":
        studies = {
            "lagrangian": ablation_lagrangian,
            "assignment": ablation_assignment_mode,
            "partition": ablation_partition_granularity,
            "adaptive": ablation_adaptive_partition,
        }
        names = list(studies) if args.study == "all" else [args.study]
        for name in names:
            print(f"\n=== ablation: {name} ===")
            _emit(studies[name](cfg, workers=workers), args, cfg)
    elif args.command == "serve":
        from repro.service import OnlineSession, PolicyDaemon

        if args.resume is not None:
            session = OnlineSession.from_checkpoint(args.resume)
            print(
                f"[serve] resumed {session.policy_name} at t={session.t}/"
                f"{session.horizon} from {args.resume}"
            )
        else:
            session = OnlineSession(cfg, policy=args.policy)
        daemon = PolicyDaemon(
            session,
            host=args.host,
            port=args.port,
            checkpoint_path=args.checkpoint_path,
            checkpoint_every=args.checkpoint_every,
        )
        if args.drive is not None:
            for _ in range(args.drive):
                reply = daemon.handle({"op": "decide"})
                if not reply.get("ok"):
                    print(f"[serve] decide failed: {reply.get('message')}")
                    return 1
            reply = daemon.handle({"op": "stop"})
            status = daemon.handle({"op": "status"})
            print(
                f"[serve] drove {args.drive} slots to t={session.t}; "
                f"p50={status['latency_p50_ms']:.3f}ms "
                f"p99={status['latency_p99_ms']:.3f}ms"
            )
            if reply.get("path"):
                print(f"[serve] checkpoint: {reply['path']}")
        else:
            host, port = daemon.start()
            print(
                f"[serve] {session.policy_name} listening on {host}:{port} "
                f"(t={session.t}/{session.horizon}); "
                "send {\"op\": \"stop\"} to exit"
            )
            daemon.serve_forever()
    elif args.command == "replicate":
        from repro.experiments.replication import replicate, replication_rows
        from repro.metrics.summary import format_table

        seeds = args.seed_list if args.seed_list is not None else args.seeds
        manifest_dir = args.manifest_dir if args.manifest_dir is not None else "results"
        agg = replicate(
            cfg,
            tuple(args.policies),
            seeds=seeds,
            workers=workers,
            manifest_dir=manifest_dir,
        )
        n = agg[args.policies[0]]["total_reward"].n
        print(f"[replicate] mean ± 95% CI over {n} seeds (base seed {cfg.seed})\n")
        print(format_table(replication_rows(agg), precision=1))
        print(f"\nwrote {Path(manifest_dir) / 'manifest.json'}")
    elif args.command == "report":
        import json

        from repro.experiments.report import evaluate_shapes, render_report
        from repro.obs.manifest import build_manifest

        shared = run_experiment(cfg, DEFAULT_POLICIES, workers=workers)
        outputs = [
            fig2a_cumulative_reward(cfg, results=shared),
            fig2_violations(cfg, results=shared),
            performance_ratio_table(cfg, results=shared),
        ]
        checks = evaluate_shapes(outputs)
        text = render_report(outputs, checks)
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text)
        manifest = build_manifest(
            kind="report", config=cfg, policies=list(DEFAULT_POLICIES)
        )
        manifest_path = out_path.parent / "manifest.json"
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        print(text)
        if args.manifest:
            print(json.dumps(manifest, indent=2, sort_keys=True))
        print(f"\nwrote {out_path} (+ {manifest_path})")
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(2)

    if args.manifest_dir is not None and args.command != "replicate":
        from repro.obs.manifest import write_manifest

        written = write_manifest(args.manifest_dir, kind=args.command, config=cfg)
        print(f"wrote {written}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "trace":
        from repro.analysis.trace_summary import (
            diff_trace_files,
            format_trace_diff,
            format_trace_summary,
            summarize_trace_file,
        )

        if args.diff or args.path_b is not None:
            if args.path_b is None:
                print("trace --diff needs two trace files: repro trace --diff A B")
                return 2
            if args.validate:
                from repro.obs.trace import iter_trace, validate_record

                for path in (args.path, args.path_b):
                    for rec in iter_trace(path):
                        validate_record(rec)
                print(f"schema OK: every record in {args.path} and {args.path_b} is valid")
            diff = diff_trace_files(args.path, args.path_b)
            print(format_trace_diff(diff, name_a=args.path, name_b=args.path_b))
            return 0 if diff["identical"] else 1
        if args.validate:
            from repro.obs.trace import iter_trace, validate_record

            for rec in iter_trace(args.path):
                validate_record(rec)
            print(f"schema OK: every record in {args.path} is valid")
        print(format_trace_summary(summarize_trace_file(args.path)))
        return 0

    if args.command == "scenarios":
        import json

        from repro import scenarios

        if args.scenario_command == "list":
            entries = scenarios.list_scenarios(tag=args.tag)
            if not entries:
                print("no scenarios registered" + (f" with tag {args.tag!r}" if args.tag else ""))
                return 0
            width = max(len(s.name) for s in entries)
            for s in entries:
                tags = f"  [{', '.join(s.tags)}]" if s.tags else ""
                print(f"{s.name:<{width}}  {s.description}{tags}")
            return 0
        try:
            info = scenarios.describe(args.name)
        except scenarios.UnknownScenarioError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 1
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0

    if args.command == "policies":
        import json

        from repro import policies as policy_registry

        if args.policy_command == "list":
            entries = policy_registry.list_policies(tag=args.tag)
            if not entries:
                print("no policies registered" + (f" with tag {args.tag!r}" if args.tag else ""))
                return 0
            width = max(len(p.name) for p in entries)
            for p in entries:
                tags = f"  [{', '.join(p.tags)}]" if p.tags else ""
                print(f"{p.name:<{width}}  {p.description}{tags}")
            return 0
        try:
            info = policy_registry.describe(args.name)
        except policy_registry.UnknownPolicyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 1
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0

    if args.command == "checkpoint":
        import json

        from repro.service import CheckpointError, describe_checkpoint

        try:
            info = describe_checkpoint(args.path)
        except CheckpointError as exc:
            print(f"invalid checkpoint: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0

    if args.command == "resume":
        from repro.service import CheckpointError, OnlineSession

        try:
            session = OnlineSession.from_checkpoint(args.path)
        except CheckpointError as exc:
            print(f"invalid checkpoint: {exc}", file=sys.stderr)
            return 1
        start_t = session.t
        session.run(args.slots)
        print(
            f"[resume] {session.policy_name}: t={start_t} -> {session.t} "
            f"(horizon {session.horizon})"
        )
        if session.t > 0:
            summary = session.result().summary()
            print(
                f"[resume] total_reward={summary['total_reward']:.3f} "
                f"violations={summary['total_violations']:.3f}"
            )
        if args.checkpoint_out is not None:
            written = session.save(args.checkpoint_out)
            print(f"[resume] wrote {written}")
        return 0

    if args.command == "fleet":
        import json

        from repro import api

        try:
            tiles_x, tiles_y = (int(v) for v in args.tiles.lower().split("x"))
        except ValueError:
            print(f"error: --tiles expects WxH (e.g. 4x4), got {args.tiles!r}", file=sys.stderr)
            return 2
        result = api.run_fleet(
            tiles_x=tiles_x,
            tiles_y=tiles_y,
            scns_per_tile=args.scns_per_tile,
            wds_per_tile=args.wds_per_tile,
            coverage=args.coverage,
            horizon=args.horizon,
            seed=args.seed,
            truth_seed=args.truth_seed,
            policy=args.policy,
            window=args.window,
            exchange_every=args.exchange_every,
            mbs_capacity=args.mbs_capacity,
            shards=args.shards,
            mode=args.mode,
            verify=args.verify,
        )
        summary = result.summary()
        if args.json:
            summary["shard_latency"] = result.latency_rows()
            summary["verified"] = bool(args.verify and result.shards > 1)
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        print(
            f"[fleet] {result.config.tiles_x}x{result.config.tiles_y} tiles, "
            f"{summary['num_scns']} SCNs, horizon {summary['horizon']}, "
            f"{result.shards} shard(s) [{result.mode}]"
        )
        print(
            f"[fleet] {summary['decisions']} decisions in {summary['wall_s']:.2f}s "
            f"({summary['decisions_per_min']:,.0f}/min), "
            f"reward {summary['total_reward']:.1f}, "
            f"{summary['rounds']} round(s), {summary['migrants']} migrant(s)"
            + (" [independent fast path]" if result.independent else "")
        )
        for row in result.latency_rows():
            print(
                f"[fleet] shard {row['shard']} ({row['tiles']} tiles): decide "
                f"p50 {row['p50_ms']:.3f} ms  p90 {row['p90_ms']:.3f} ms  "
                f"p99 {row['p99_ms']:.3f} ms  ({row['count']} slots)"
            )
        if args.verify and result.shards > 1:
            print("[fleet] verified: sharded run matches the unsharded reference bit for bit")
        return 0

    cfg = _config_from_args(args)
    workers = args.workers

    if args.trace is not None:
        from repro.obs import observe

        with observe(trace_path=args.trace, sample_every=args.trace_sample):
            rc = _dispatch(args, cfg, workers)
        print(f"wrote trace: {args.trace}")
        return rc
    return _dispatch(args, cfg, workers)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
