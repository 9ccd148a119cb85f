"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``info``         system summary: operating points, REPB, link budget.
``link``         simulate one end-to-end exchange and print diagnostics
                 (``--telemetry`` records and saves a pipeline trace).
``sweep``        throughput-vs-range sweep (a quick Fig. 8).
``plan``         pick battery-free operating points under a power budget.
``experiments``  regenerate every paper table/figure (run_all).
``robustness``   delivery/goodput vs injected-fault intensity, ARQ
                 on/off (the reliability-layer sweep).
``trace``        summarise a recorded telemetry run (timing table,
                 probe digest, stage-margin waterfall).
``profile``      run one exchange under cProfile and print the
                 function-level profile next to the telemetry stage
                 timing table.
``scenarios``    list/inspect the registered scenario presets
                 (``--describe NAME``, ``--dump NAME``).
``network``      discrete-event multi-tag simulation of a scenario's
                 ``network`` section (e.g. ``--scenario warehouse-10k``),
                 sharded per AP and cached like the other sweeps.
``serve``        run the streaming decode service: chunked sample
                 ingest over HTTP, many concurrent tag sessions, live
                 telemetry feed (see docs/STREAMING.md; the stdlib
                 client is ``python -m repro.streaming``).

``link``, ``sweep``, ``profile`` and ``robustness`` all accept
``--scenario NAME`` (start from a registered preset) and
``--set key=value`` (dotted-path overrides, e.g.
``--set reader.sync_search_us=4``); explicit flags sit between the
two in precedence.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _non_negative_int(text: str) -> int:
    """An ``argparse`` type: an int of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BackFi (SIGCOMM 2015) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="operating points and link budget table")

    link = sub.add_parser("link", help="simulate one exchange")
    _add_scenario_flags(link)
    link.add_argument("--distance", type=float, default=None)
    link.add_argument("--modulation", default=None,
                      choices=("bpsk", "qpsk", "16psk"))
    link.add_argument("--code-rate", default=None,
                      choices=("1/2", "2/3"))
    link.add_argument("--symbol-rate", type=float, default=None)
    link.add_argument("--payload-bits", type=int, default=None)
    link.add_argument("--wifi-rate", type=int, default=None)
    link.add_argument("--seed", type=int, default=None)
    link.add_argument("--telemetry", action="store_true",
                      help="record a pipeline trace under "
                           ".repro_cache/telemetry/ and summarise it")

    sweep = sub.add_parser("sweep", help="throughput vs range")
    _add_scenario_flags(sweep)
    sweep.add_argument("--distances", type=float, nargs="+",
                       default=[0.5, 1.0, 2.0, 5.0])
    sweep.add_argument("--trials", type=int, default=3)
    sweep.add_argument("--seed", type=int, default=7)

    plan = sub.add_parser("plan", help="energy planning")
    plan.add_argument("--budget-uw", type=float, default=80.0)
    plan.add_argument("--rate-bps", type=float, default=250e3)
    plan.add_argument("--distances", type=float, nargs="+",
                      default=[1.0, 2.0, 5.0])

    exp = sub.add_parser("experiments",
                         help="regenerate every paper figure")
    exp.add_argument("--fast", action="store_true")
    exp.add_argument("--plot", action="store_true")
    exp.add_argument("--jobs", type=int, default=1,
                     help="worker processes (0 = all CPUs)")
    exp.add_argument("--no-cache", action="store_true",
                     help="recompute instead of reading .repro_cache/")

    rob = sub.add_parser("robustness",
                         help="ARQ delivery/goodput vs fault intensity")
    _add_scenario_flags(rob)
    rob.add_argument("--intensities", type=float, nargs="+",
                     default=[0.0, 0.3, 0.6, 0.9],
                     help="blocker trigger probabilities to sweep")
    rob.add_argument("--trials", type=int, default=3)
    rob.add_argument("--distance", type=float, default=1.0)
    rob.add_argument("--seed", type=int, default=47)
    rob.add_argument("--jobs", type=int, default=1,
                     help="worker processes (0 = all CPUs)")
    rob.add_argument("--no-cache", action="store_true",
                     help="recompute instead of reading .repro_cache/")

    trace = sub.add_parser("trace",
                           help="summarise a recorded telemetry run")
    trace.add_argument("run", nargs="?", default=None,
                       help="run id or JSONL path (default: latest)")
    trace.add_argument("--dir", default=None,
                       help="telemetry directory to search "
                            "(default: .repro_cache/telemetry)")

    prof = sub.add_parser("profile",
                          help="profile one exchange (cProfile + "
                               "telemetry stage timings)")
    _add_scenario_flags(prof)
    prof.add_argument("--distance", type=float, default=None)
    prof.add_argument("--payload-bits", type=int, default=None)
    prof.add_argument("--seed", type=int, default=None)
    prof.add_argument("--top", type=int, default=15,
                      help="rows of the cProfile table to print")

    scen = sub.add_parser("scenarios",
                          help="list/inspect scenario presets")
    scen.add_argument("--list", action="store_true",
                      help="list registered presets (the default)")
    scen.add_argument("--describe", metavar="NAME", default=None,
                      help="print one preset's fields and hash")
    scen.add_argument("--dump", metavar="NAME", default=None,
                      help="print one preset as JSON (reloadable via "
                           "ScenarioConfig.from_json)")

    net = sub.add_parser("network",
                         help="discrete-event multi-tag network "
                              "simulation")
    _add_scenario_flags(net)
    net.add_argument("--polls", type=int, default=200,
                     help="total polls split across the APs")
    net.add_argument("--tags", type=int, default=None,
                     help="override the scenario's tag count")
    net.add_argument("--aps", type=int, default=None,
                     help="override the scenario's AP count")
    net.add_argument("--scheduler", default=None,
                     choices=("round_robin", "max_rate", "proportional"))
    net.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed")
    net.add_argument("--jobs", type=int, default=1,
                     help="worker processes (0 = all CPUs)")
    net.add_argument("--no-cache", action="store_true",
                     help="recompute instead of reading .repro_cache/")

    serve = sub.add_parser("serve",
                           help="streaming decode service "
                                "(HTTP/WebSocket, live telemetry feed)")
    _add_scenario_flags(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port (default: 8735; 0 picks a free "
                            "port and prints it)")
    serve.add_argument("--max-sessions", type=int, default=None,
                       help="concurrent-session admission limit "
                            "(default: the scenario's streaming "
                            "section)")
    serve.add_argument("--chunk-samples", type=int, default=None,
                       help="advertised ingest chunk size")
    serve.add_argument("--warm-start", action="store_true",
                       help="default new sessions to warm decoding "
                            "(carry cancellation/sync state across "
                            "exchanges)")
    serve.add_argument("--telemetry-records", type=_non_negative_int,
                       default=4096,
                       help="in-memory telemetry ring size "
                            "(default: %(default)s)")
    serve.add_argument("--chaos-intensity", type=float, default=None,
                       help="scale the scenario's chaos plan (0 "
                            "disables; >0 arms the default event set "
                            "even without a scenario chaos section)")
    serve.add_argument("--chaos-seed", type=int, default=None,
                       help="override the chaos plan's seed")

    rep = sub.add_parser("report",
                         help="write a markdown reproduction report")
    rep.add_argument("-o", "--output", default="report.md")
    rep.add_argument("--fast", action="store_true")
    rep.add_argument("--jobs", type=int, default=1,
                     help="worker processes (0 = all CPUs)")
    rep.add_argument("--no-cache", action="store_true",
                     help="recompute instead of reading .repro_cache/")
    return parser


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    """``--scenario`` / ``--set`` on every scenario-driven command."""
    parser.add_argument("--scenario", metavar="NAME", default=None,
                        help="start from a registered preset "
                             "(see: repro scenarios)")
    parser.add_argument("--set", dest="overrides", action="append",
                        metavar="KEY=VALUE", default=None,
                        help="dotted-path override, e.g. "
                             "--set reader.sync_search_us=4 "
                             "(repeatable)")


_FLAG_TO_TAG = {"modulation": "modulation", "code_rate": "code_rate",
                "symbol_rate": "symbol_rate_hz"}
_FLAG_TO_LINK = {"payload_bits": "n_payload_bits",
                 "wifi_rate": "wifi_rate_mbps"}


def _scenario_from_args(args: argparse.Namespace, *,
                        map_flags: bool = True):
    """Resolve the command's flags into one :class:`ScenarioConfig`.

    Precedence, lowest to highest: the ``--scenario`` preset (or the
    stock defaults), explicit flags (``--distance``, ``--modulation``,
    ...), then ``--set`` dotted-path overrides.  Flags left at their
    ``None`` default never override the preset.  ``map_flags=False``
    skips the explicit-flag layer for commands whose ``--seed`` /
    ``--distance`` parameterise the sweep rather than the scenario.
    """
    from dataclasses import replace

    from .scenario import ScenarioConfig, get_scenario

    with _refused_values():
        sc = get_scenario(args.scenario) \
            if getattr(args, "scenario", None) else ScenarioConfig()
        if map_flags:
            top: dict = {}
            if getattr(args, "distance", None) is not None:
                top["distance_m"] = float(args.distance)
            if getattr(args, "seed", None) is not None:
                top["seed"] = int(args.seed)
            tag_kw = {dst: getattr(args, src)
                      for src, dst in _FLAG_TO_TAG.items()
                      if getattr(args, src, None) is not None}
            if tag_kw:
                top["tag"] = replace(sc.tag, **tag_kw)
            link_kw = {dst: getattr(args, src)
                       for src, dst in _FLAG_TO_LINK.items()
                       if getattr(args, src, None) is not None}
            if link_kw:
                top["link"] = replace(sc.link, **link_kw)
            if top:
                sc = sc.replace(**top)
        if getattr(args, "overrides", None):
            sc = sc.with_overrides(*args.overrides)
    return sc


@contextlib.contextmanager
def _refused_values():
    """A flag or ``--set`` value the scenario refuses ends the command
    with one error line instead of a traceback."""
    try:
        yield
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"repro: error: {exc.args[0]}") from None


def _cmd_info() -> int:
    from .experiments.fig7_energy_table import run as fig7
    from .link import LinkBudget
    from .tag import TagConfig

    print(fig7().table)
    print()
    budget = LinkBudget()
    cfg = TagConfig("qpsk", "1/2", 1e6)
    print("link budget (qpsk r1/2 @1 MHz):")
    for d in (0.5, 1.0, 2.0, 5.0, 7.0):
        print(f"  {d:4.1f} m: rx {budget.backscatter_rx_dbm(d):6.1f} dBm, "
              f"post-MRC SNR {budget.symbol_snr_db(d, cfg):5.1f} dB")
    return 0


def _cmd_link(args: argparse.Namespace) -> int:
    sc = _scenario_from_args(args)
    rng = np.random.default_rng(sc.seed)
    built = sc.build(rng=rng)
    collector = None
    if args.telemetry:
        from .telemetry import TelemetryCollector

        what = (f"--scenario {sc.name}" if sc.name
                else f"--distance {sc.distance_m:g}")
        collector = TelemetryCollector(
            label=f"repro link {what} "
                  f"({sc.tag.describe()}, seed {sc.seed})")
        collector.__enter__()
    try:
        out = built.run(rng=rng)
    finally:
        if collector is not None:
            collector.__exit__(None, None, None)
    r = out.reader
    print(f"scenario        : {sc.name or '(custom)'} "
          f"[{sc.scenario_hash()}]")
    print(f"operating point : {sc.tag.describe()}")
    print(f"decoded         : {out.ok}"
          + (f" ({r.failure})" if r.failure else ""))
    print(f"delivered       : {out.delivered_bits} bits "
          f"({out.goodput_bps / 1e6:.2f} Mbps goodput)")
    print(f"post-MRC SNR    : {r.symbol_snr_db:.1f} dB")
    if r.cancellation is not None:
        c = r.cancellation
        print(f"cancellation    : {c.total_depth_db:.1f} dB total "
              f"(analog {c.analog_residual_db:.1f}, "
              f"digital {c.digital_residual_db:.1f})")
    print(f"noise floor     : {10 * np.log10(r.noise_floor_mw):.1f} dBm")
    if collector is not None:
        from .telemetry import load_run, summarize

        print()
        print(summarize(load_run(collector.path)))
        print(f"\ntrace saved to {collector.path} "
              f"(re-render with: python -m repro.cli trace "
              f"{collector.run_id})")
    return 0 if out.ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    """One exchange under cProfile, merged with the telemetry trace.

    The function-level profile says *where the interpreter spent its
    time*; the telemetry stage table says *which pipeline stage* -- the
    two views together are what the perf work in docs/PERFORMANCE.md is
    navigated with.
    """
    import cProfile
    import io
    import pstats

    from .telemetry import TelemetryCollector, load_run
    from .telemetry.trace import stage_timing_table

    sc = _scenario_from_args(args)
    # Warm-up exchange: triggers the pipeline's lazy imports and cache
    # setup so the profiled run measures steady-state decode cost.
    warm_rng = np.random.default_rng(sc.seed)
    sc.build(rng=warm_rng).run(rng=warm_rng)

    rng = np.random.default_rng(sc.seed)
    built = sc.build(rng=rng)
    profiler = cProfile.Profile()
    with TelemetryCollector(
            label=f"repro profile (seed {sc.seed})") as collector:
        profiler.enable()
        out = built.run(rng=rng)
        profiler.disable()

    print(f"profiled one exchange (decoded: {out.ok})\n")
    print("pipeline stages (telemetry):")
    print(stage_timing_table(load_run(collector.path)))
    print(f"\ntop {args.top} functions by cumulative time (cProfile):")
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative").print_stats(args.top)
    # Drop the pstats banner lines; keep the table.
    lines = buf.getvalue().splitlines()
    table_from = next(i for i, ln in enumerate(lines) if "ncalls" in ln)
    print("\n".join(lines[table_from:]).rstrip())
    print(f"\ntrace saved to {collector.path}")
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from .experiments.engine import ExperimentEngine, use_engine
    from .experiments.robustness_sweep import run as robustness_run

    engine = ExperimentEngine(jobs=args.jobs, cache=not args.no_cache)
    params = {
        "intensities": tuple(args.intensities),
        "trials": args.trials,
        "distance_m": args.distance,
        "seed": args.seed,
    }
    if args.scenario or args.overrides:
        # The scenario baseline participates in the cache key via its
        # scenario_hash, so preset/override runs never collide with the
        # stock sweep.
        params["scenario"] = _scenario_from_args(args, map_flags=False)
    with engine, use_engine(engine):
        result = engine.run("robustness_sweep", robustness_run, params)
        print(result.table)
        print(engine.records[-1].describe(), file=sys.stderr)
        for failure in engine.trial_failures:
            print(f"WARNING: {failure}", file=sys.stderr)
    return 0


def _cmd_network(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .experiments.engine import ExperimentEngine, use_engine
    from .experiments.network_sim import run as network_run
    from .link.simulator import NetworkConfig

    sc = _scenario_from_args(args, map_flags=False)
    network = sc.network or NetworkConfig()
    over = {}
    if args.tags is not None:
        over["n_tags"] = args.tags
    if args.aps is not None:
        over["n_aps"] = args.aps
    if args.scheduler is not None:
        over["scheduler"] = args.scheduler
    if over:
        network = replace(network, **over)
    sc = sc.replace(network=network)

    engine = ExperimentEngine(jobs=args.jobs, cache=not args.no_cache)
    # jobs stays out of the cache key: results are byte-identical at
    # any worker count, so every jobs value shares one cache entry.
    params: dict = {"scenario": sc, "polls": args.polls}
    if args.seed is not None:
        params["seed"] = args.seed
    with engine, use_engine(engine):
        result = engine.run("network_sim", network_run, params)
        print(result.table)
        print(engine.records[-1].describe(), file=sys.stderr)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .telemetry import load_run, resolve_run_path, summarize

    try:
        path = resolve_run_path(args.run, args.dir)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summarize(load_run(path)))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments.fig8_throughput_range import run as fig8

    scenario = None
    if args.scenario or args.overrides:
        scenario = _scenario_from_args(args, map_flags=False)
    with _refused_values():
        result = fig8(distances_m=tuple(args.distances),
                      preambles_us=(32.0,), trials=args.trials,
                      seed=args.seed, scenario=scenario)
    print(result.table)
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .scenario import get_scenario, list_scenarios

    name = args.dump or args.describe
    if name:
        try:
            sc = get_scenario(name)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 1
        if args.dump:
            print(sc.to_json())
            return 0
        print(f"name        : {sc.name}")
        print(f"description : {sc.description}")
        print(f"hash        : {sc.scenario_hash()}")
        print(f"tag         : {sc.tag.describe()}")
        print(f"distance    : {sc.distance_m:g} m (client "
              f"{sc.client_distance_m:g} m @ "
              f"{sc.client_angle_deg:g} deg)")
        print(f"link        : {sc.link.excitation} excitation @ "
              f"{sc.link.wifi_rate_mbps} Mbps, "
              f"{sc.link.wifi_payload_bytes} B packets, "
              f"{sc.link.n_payload_bits} payload bits")
        print(f"reader      : {sc.reader.n_channel_taps} taps, "
              f"sync +/-{sc.reader.sync_search_us:g} us, "
              f"tracking {'on' if sc.reader.track_phase else 'off'}")
        print(f"arq         : "
              f"{'configured' if sc.arq is not None else 'none'}")
        n_faults = len(sc.faults.events) if sc.faults is not None else 0
        print(f"faults      : {n_faults} event(s)")
        return 0
    width = max((len(n) for n in list_scenarios()), default=0)
    for preset in list_scenarios():
        sc = get_scenario(preset)
        print(f"{preset:<{width}}  {sc.scenario_hash()}  "
              f"{sc.description}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the streaming decode service until POST /shutdown (or ^C)."""
    import asyncio
    import signal
    from dataclasses import replace

    from .faults import ChaosConfig
    from .scenario import StreamingConfig, get_scenario
    from .streaming import DEFAULT_PORT, SessionMultiplexer, \
        StreamingServer
    from .telemetry import TelemetryCollector

    scenario_name = args.scenario or "streaming-50"
    with _refused_values():
        sc = get_scenario(scenario_name)
        if args.overrides:
            sc = sc.with_overrides(*args.overrides)
    cfg = sc.streaming or StreamingConfig()
    flag_over = {
        name: getattr(args, name)
        for name in ("max_sessions", "chunk_samples")
        if getattr(args, name) is not None
    }
    if args.warm_start:
        flag_over["warm_start"] = True
    if flag_over:
        cfg = replace(cfg, **flag_over)

    # Chaos: the scenario's section, optionally rescaled/reseeded (or
    # created) by the flags.  --chaos-intensity 0 always disables.
    chaos_cfg = sc.chaos
    if args.chaos_intensity is not None or args.chaos_seed is not None:
        base = chaos_cfg or ChaosConfig(intensity=0.0)
        chaos_cfg = replace(
            base,
            intensity=base.intensity if args.chaos_intensity is None
            else args.chaos_intensity,
            seed=base.seed if args.chaos_seed is None
            else args.chaos_seed,
        )
    chaos_plan = chaos_cfg.plan() if chaos_cfg is not None else None

    async def _serve() -> int:
        collector = TelemetryCollector(
            label=f"repro serve --scenario {scenario_name}",
            max_records=args.telemetry_records)
        server = StreamingServer(
            SessionMultiplexer(cfg, chaos=chaos_plan),
            host=args.host,
            port=DEFAULT_PORT if args.port is None else args.port,
            default_scenario=scenario_name,
            collector=collector,
        )
        await server.start()
        # SIGTERM/SIGINT begin a graceful drain (stop admissions, let
        # in-flight exchanges finish); a second signal stops at once.
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(sig, server.request_drain)
        print(f"streaming decode service on "
              f"http://{server.host}:{server.port}", flush=True)
        print(f"  default scenario : {scenario_name} "
              f"[{sc.scenario_hash()}]", flush=True)
        print(f"  sessions         : up to {cfg.max_sessions} "
              f"({cfg.chunk_samples}-sample chunks)", flush=True)
        if cfg.watchdog_deadline_s is not None:
            print(f"  watchdog         : reap stalled sessions after "
                  f"{cfg.watchdog_deadline_s:g}s", flush=True)
        if chaos_plan is not None:
            print(f"  chaos            : ARMED "
                  f"({len(chaos_plan.events)} event types, seed "
                  f"{chaos_plan.seed}) -- injecting transport faults",
                  flush=True)
        print("  stop with        : POST /shutdown, SIGTERM drain, "
              "or ^C", flush=True)
        try:
            await server.serve_until_shutdown()
        except (KeyboardInterrupt, asyncio.CancelledError):
            await server.aclose()
        finally:
            for sig in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError,
                                         ValueError):
                    loop.remove_signal_handler(sig)
        print(f"telemetry saved to {collector.path}", flush=True)
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .link import LinkBudget
    from .reader import select_config
    from .tag import default_energy_model

    budget = LinkBudget()
    model = default_energy_model()
    print(f"budget {args.budget_uw:.0f} uW, "
          f"target {args.rate_bps / 1e3:.0f} kbps")
    for d in args.distances:
        choice = select_config(
            lambda cfg: budget.symbol_snr_db(d, cfg),
            min_throughput_bps=args.rate_bps,
        )
        if choice is None:
            print(f"  {d:4.1f} m: infeasible")
            continue
        duty = args.rate_bps / choice.config.throughput_bps
        avg_uw = model.epb_pj(choice.config) \
            * choice.config.throughput_bps * duty * 1e-6
        verdict = "OK" if avg_uw <= args.budget_uw else "over budget"
        print(f"  {d:4.1f} m: {choice.config.describe()} "
              f"(REPB {choice.repb:.3f}, {avg_uw:.3f} uW avg) {verdict}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "info":
        return _cmd_info()
    if args.command == "link":
        return _cmd_link(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "robustness":
        return _cmd_robustness(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "scenarios":
        return _cmd_scenarios(args)
    if args.command == "network":
        return _cmd_network(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "experiments":
        from .experiments.run_all import main as run_all_main

        extra = ["--jobs", str(args.jobs)]
        if args.fast:
            extra.append("--fast")
        if args.plot:
            extra.append("--plot")
        if args.no_cache:
            extra.append("--no-cache")
        return run_all_main(extra)
    if args.command == "report":
        from .experiments.report import main as report_main

        extra = ["-o", args.output, "--jobs", str(args.jobs)]
        if args.fast:
            extra.append("--fast")
        if args.no_cache:
            extra.append("--no-cache")
        return report_main(extra)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
