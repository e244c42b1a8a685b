"""Command-line interface.

Usage (installed as ``fractanet`` or via ``python -m repro``)::

    fractanet experiments                 # list experiment ids
    fractanet run table2                  # print one experiment's report
    fractanet run all                     # run every experiment
    fractanet topologies                  # list topology builders
    fractanet build fat_fractahedron --param levels=2   # build & summarize
    fractanet certify fat_fractahedron --param levels=2 # deadlock certification
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

__all__ = ["main"]


def _parse_params(pairs: list[str]) -> dict[str, str]:
    params: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"bad --param {pair!r}; expected key=value")
        key, value = pair.split("=", 1)
        params[key] = value
    return params


def _build(topology: str, param_pairs: list[str]):
    """Build a topology from CLI ``--param`` pairs, validated and typed
    against the builder's registered parameter specs."""
    from repro.topology.registry import build_topology, coerce_params

    try:
        params = coerce_params(topology, _parse_params(param_pairs))
        return build_topology(topology, **params)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _recovery_policies(args):
    """Translate the recovery flags into (retry, reroute) policy objects.

    ``--faults`` alone takes links down with no recovery (the blocked-worm
    behaviour the paper warns about); ``--retry`` / ``--reroute`` switch
    the respective subsystems on.
    """
    from repro.sim.engine import RetryPolicy, ReroutePolicy

    retry = None
    if args.retry:
        retry = RetryPolicy(
            timeout=args.retry_timeout,
            backoff=args.retry_backoff,
            max_retries=args.max_retries,
        )
    reroute = None
    if args.reroute:
        reroute = ReroutePolicy(
            detection_delay=args.detection_delay,
            reconvergence_delay=args.reconvergence_delay,
        )
    return retry, reroute


def _routing_for(net):
    """Pick (and cache) the matching routing tables for a built topology."""
    from repro.routing.cache import cached_tables

    return cached_tables(net)


def _point_rows(points) -> list[dict[str, Any]]:
    """Sweep results (LoadPoints or recovery dicts) as metrics rows."""
    rows: list[dict[str, Any]] = []
    for p in points:
        if isinstance(p, dict):
            rows.append({"kind": "point", **p})
        else:
            rows.append(
                {
                    "kind": "point",
                    "offered_load": p.offered_rate,
                    "accepted_flits_per_node_cycle": p.accepted_flits_per_node_cycle,
                    "avg_latency": p.avg_latency,
                    "p99_latency": p.p99_latency,
                    "saturated": p.saturated,
                }
            )
    return rows


def _cache_row() -> dict[str, Any]:
    """Routing-table cache counters at export time, as one metrics row.

    Dropped whole by the deterministic view (timings and hit ratios vary
    with process history), but surfaced by ``fractanet report`` so table
    build cost and fragment reuse are visible next to the run they paid for.
    """
    from repro.routing.cache import DEFAULT_CACHE

    return {"kind": "cache", **DEFAULT_CACHE.stats.as_dict()}


def _write_metrics_file(path: str, rows: list[dict[str, Any]]) -> None:
    from repro.obs import write_metrics

    write_metrics(path, [*rows, _cache_row()])
    print(f"wrote {len(rows) + 1} metric row(s) to {path}")


def cmd_experiments(_args) -> int:
    from repro.experiments.registry import experiment_names, get_experiment

    for name in experiment_names():
        print(f"{name:12s} {get_experiment(name).description}")
    return 0


def _experiment_report(name: str) -> str:
    """One experiment's report text; module level, so it ships to workers."""
    from repro.experiments.registry import get_experiment

    return get_experiment(name).report()


def cmd_run(args) -> int:
    from repro.experiments.registry import (
        ExperimentConfig,
        experiment_names,
        get_experiment,
    )

    names = experiment_names() if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in experiment_names()]
    if unknown:
        print(f"unknown experiment {unknown[0]!r}; try 'fractanet experiments'")
        return 1
    jobs = getattr(args, "jobs", 1)
    if getattr(args, "metrics_out", None):
        # Metrics mode: run through the registry so every result carries
        # its manifest, and export manifests + canonical rows per driver.
        config = ExperimentConfig(jobs=jobs)
        rows: list[dict[str, Any]] = []
        for name in names:
            result = get_experiment(name).run(config)
            if result.manifest is not None:
                rows.append(result.manifest)
            rows.extend(
                {"kind": "row", "experiment": name, **r} for r in result.rows()
            )
            print(f"{name}: {len(result.rows())} result row(s)")
        _write_metrics_file(args.metrics_out, rows)
        return 0
    if jobs > 1 and len(names) > 1:
        # Whole experiments are the unit of parallelism for `run all`.
        from repro.sim.parallel import SweepRunner

        with SweepRunner(jobs) as runner:
            reports = runner.map(
                _experiment_report, names, labels=[f"report {n}" for n in names]
            )
        for report in reports:
            print(report)
            print()
        print(runner.stats.report())
        return 0
    config = ExperimentConfig(jobs=jobs)
    for name in names:
        print(get_experiment(name).report(config))
        print()
    return 0


def _engine_arg(args) -> str:
    """Normalize the ``--engine`` flag (``vec`` is CLI shorthand)."""
    if args.engine == "vec":
        args.engine = "vectorized"
    return args.engine


def cmd_sweep(args) -> int:
    """Latency curve / saturation search / recovery sweep, fanned over
    the parallel runner; ``--metrics-out`` adds phase spans and counters."""
    import functools
    import time

    from repro.obs.metrics import MetricRegistry
    from repro.sim.parallel import SweepRunner
    from repro.sim.sweep import (
        curve_points,
        find_saturation,
        recovery_curve,
        sample_point,
    )

    _engine_arg(args)
    metrics = MetricRegistry()
    start = time.perf_counter()
    with metrics.span("table_build"):
        net = _build(args.topology, args.param)
        tables = _routing_for(net)
    runner = SweepRunner(args.jobs)
    if args.faults:
        # recovery sweep: one fail/repair episode per failure count
        retry, reroute = _recovery_policies(args)
        counts = tuple(int(k) for k in args.faults.split(","))
        points = recovery_curve(
            net,
            tables,
            counts,
            rate=args.rate,
            cycles=args.cycles,
            packet_size=args.packet_size,
            seed=args.seed,
            repair_cycle=args.repair_cycle,
            retry=retry,
            reroute=reroute,
            failover=args.failover,
            runner=runner,
            engine=args.engine,
        )
        runner.close()
        print(f"{net.name} recovery sweep @ rate {args.rate}:")
        print("  faults  delivered  retried  failover  dropped  swaps  post-recovery")
        for p in points:
            print(
                f"  {p['failures']:6d}  {p['delivered']:5d}/{p['offered']:<5d} "
                f"{p['retried']:6d} {p['failed_over']:9d} {p['dropped']:8d} "
                f"{p['reroutes']:6d} {p['post_recovery_rate'] * 100:11.2f}%"
                + ("" if p["recovered_acyclic"] else "  [UNCERTIFIED]")
            )
        print(runner.stats.report(per_task=args.verbose))
        if args.metrics_out:
            from repro.obs import run_manifest
            from repro.sim.recovery import recovery_config

            manifest = run_manifest(
                net,
                recovery_config(retry, reroute, engine=args.engine),
                engine=args.engine,
                jobs=args.jobs,
                seed=args.seed,
                wall_seconds=time.perf_counter() - start,
                command="sweep",
                rate=args.rate,
                cycles=args.cycles,
                failure_counts=list(counts),
            )
            _write_metrics_file(
                args.metrics_out,
                [manifest] + _point_rows(points) + metrics.rows(),
            )
        return 0
    rates = tuple(float(r) for r in args.rates.split(","))
    sample_rows: list[dict[str, Any]] = []
    if args.sample_interval:
        # probed points: the same curve, executed per spec with a probe
        # created in the worker; rows come back in submission order
        sample = functools.partial(sample_point, args.sample_interval)

        def executor(specs):
            observed = runner.map(
                sample, specs, labels=[f"{net.name} rate={r:g}" for r in rates]
            )
            with metrics.span("merge"):
                sample_rows.extend(row for _, rows in observed for row in rows)
                metrics.counter("probe_samples", sweep=net.name).inc(
                    sum(len(rows) for _, rows in observed)
                )
            return [result for result, _ in observed]

    else:
        executor = runner.execute_batch
    metrics.counter("sweep_points", sweep=net.name).inc(len(rates))
    with metrics.span("simulate"):
        points = curve_points(
            net,
            tables,
            rates,
            cycles=args.cycles,
            packet_size=args.packet_size,
            seed=args.seed,
            switching=args.switching,
            engine=args.engine,
            run_batch=executor,
        )
    runner.close()
    print(f"{net.name} ({args.switching}):")
    print("  offered   accepted    avg lat    p99 lat")
    for p in points:
        print(
            f"  {p.offered_rate:.4f}    {p.accepted_flits_per_node_cycle:.4f}      "
            f"{p.avg_latency:7.1f}    {p.p99_latency:7.1f}"
            + ("   SATURATED" if p.saturated else "")
        )
    if args.saturation:
        sat = find_saturation(
            net,
            tables,
            cycles=args.cycles,
            packet_size=args.packet_size,
            seed=args.seed,
            switching=args.switching,
            engine=args.engine,
        )
        print(f"  saturation rate: {sat:.4f} offered packets/node/cycle")
    print(runner.stats.report(per_task=args.verbose))
    if args.metrics_out:
        from repro.obs import run_manifest
        from repro.sim.sweep import _point_config

        manifest = run_manifest(
            net,
            _point_config(args.packet_size, args.switching, args.engine),
            engine=args.engine,
            jobs=args.jobs,
            seed=args.seed,
            sample_interval=args.sample_interval,
            wall_seconds=time.perf_counter() - start,
            command="sweep",
            rates=list(rates),
            cycles=args.cycles,
        )
        _write_metrics_file(
            args.metrics_out,
            [manifest]
            + _point_rows(points)
            + sample_rows
            + metrics.rows(),
        )
    return 0


def cmd_topologies(args) -> int:
    from repro.topology.registry import available_topologies, describe_topology

    if getattr(args, "describe", None):
        try:
            print(describe_topology(args.describe))
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        return 0
    for name in available_topologies():
        print(name)
    return 0


def cmd_build(args) -> int:
    from repro.metrics.cost import cost_summary
    from repro.network.validate import validate_network

    net = _build(args.topology, args.param)
    cost = cost_summary(net)
    issues = validate_network(net)
    print(f"{net.name}: {cost.routers} routers, {cost.end_nodes} end nodes, "
          f"{cost.cables} cables ({cost.router_cables} router-router)")
    print(f"port utilization: {cost.port_utilization * 100:.0f}%")
    for issue in issues:
        print(f"  {issue}")
    if getattr(args, "save", None):
        from repro.network.serialize import save_fabric

        save_fabric(args.save, net, _routing_for(net))
        print(f"saved fabric configuration to {args.save}")
    return 0 if not any(i.severity == "error" for i in issues) else 1


def cmd_reproduce(args) -> int:
    from repro.experiments.summary import reproduce, transcript, write_results

    record = reproduce(jobs=getattr(args, "jobs", 1))
    print(transcript(record))
    if args.out:
        write_results(args.out, record)
        print(f"\nwrote {args.out}")
    return 0 if record["all_passed"] else 1


def cmd_inspect(args) -> int:
    from repro.deadlock.certifier import certify_channel_order
    from repro.metrics.cost import cost_summary
    from repro.network.serialize import load_fabric

    net, tables, disables = load_fabric(args.file)
    cost = cost_summary(net)
    print(f"{net.name}: {cost.routers} routers, {cost.end_nodes} end nodes, "
          f"{cost.cables} cables")
    if disables is not None:
        print(f"disabled turns: {len(disables)}")
    if tables is not None:
        result = certify_channel_order(net, tables)
        print(f"routing: deliverable={result.deliverable} "
              f"deadlock_free={result.deadlock_free}")
        return 0 if result.certified else 1
    print("no routing tables in file")
    return 0


def cmd_show(args) -> int:
    from repro.viz import render

    net = _build(args.topology, args.param)
    print(render(net))
    return 0


def cmd_certify(args) -> int:
    from repro.deadlock.certifier import certify_channel_order

    net = _build(args.topology, args.param)
    result = certify_channel_order(net, _routing_for(net))
    print(
        f"{net.name}: deliverable={result.deliverable} "
        f"deadlock_free={result.deadlock_free} "
        f"({result.num_channels} channels, {result.num_dependencies} dependencies)"
    )
    if result.certificate:
        print(
            f"  channel-order certificate: {result.num_channels} channels "
            "in ascending order (verified)"
        )
    elif result.counterexample:
        print("  channel-order counterexample: " + " -> ".join(result.counterexample[:6]))
    for failure in result.failures:
        print(f"  {failure}")
    return 0 if result.certified else 1


def _simulate_metrics(args, net, config, point, timeline, wall) -> None:
    """Write `simulate`'s manifest (of the ``config`` it ran) + point +
    timeline rows to --metrics-out."""
    from repro.obs import run_manifest

    rows = [
        run_manifest(
            net,
            config,
            engine=args.engine,
            jobs=1,
            seed=args.seed,
            sample_interval=args.sample_interval,
            wall_seconds=wall,
            command="simulate",
            rate=args.rate,
            cycles=args.cycles,
        )
    ]
    rows.extend(_point_rows([point]))
    rows.extend(timeline)
    _write_metrics_file(args.metrics_out, rows)


def _check_parity_recovery(args, net, tables, retry, reroute) -> int:
    """Recovery-path parity: the full result dict must match across the
    reference, compiled and vectorized engines."""
    from repro.sim.recovery import simulate_with_recovery

    results = {
        engine: simulate_with_recovery(
            net,
            tables,
            rate=args.rate,
            cycles=args.cycles,
            packet_size=args.packet_size,
            seed=args.seed,
            faults=args.faults,
            repair_cycle=args.repair_cycle,
            retry=retry,
            reroute=reroute,
            failover=args.failover,
            engine=engine,
        )
        for engine in ("reference", "compiled", "vectorized")
    }
    ref = results.pop("reference")

    def differ(a, b) -> bool:
        # two NaN average latencies (nothing delivered) agree
        return a != b and not (a != a and b != b)

    diffs = [
        f"  {k}: reference={ref.get(k)!r} {engine}={got.get(k)!r}"
        for engine, got in results.items()
        for k in sorted(set(ref) | set(got))
        if differ(ref.get(k), got.get(k))
    ]
    if diffs:
        print("COUNTER PARITY FAILED (recovery path):")
        print("\n".join(diffs))
        return 1
    print(
        f"counter parity OK: {len(ref)} recovery result fields identical "
        f"on {len(results) + 1} engines"
    )
    return 0


def _engine_refused(args, exc: ValueError) -> int:
    """Report a forced ``--engine`` the engine decision refused (exit 2).

    Only a forced engine can refuse a spec; under ``auto`` the error is
    something else and propagates.
    """
    if args.engine == "auto":
        raise exc
    print(f"--engine {args.engine} cannot run this spec: {exc}")
    return 2


def cmd_simulate(args) -> int:
    import time

    net = _build(args.topology, args.param)
    tables = _routing_for(net)
    retry, reroute = _recovery_policies(args)
    _engine_arg(args)
    start = time.perf_counter()
    if args.faults or retry or reroute or args.failover:
        from repro.sim.recovery import recovery_config, simulate_with_recovery

        if args.check_parity:
            return _check_parity_recovery(args, net, tables, retry, reroute)
        probe = None
        if args.sample_interval:
            from repro.obs import SimProbe

            probe = SimProbe(args.sample_interval)
        try:
            r = simulate_with_recovery(
                net,
                tables,
                rate=args.rate,
                cycles=args.cycles,
                packet_size=args.packet_size,
                seed=args.seed,
                faults=args.faults,
                repair_cycle=args.repair_cycle,
                retry=retry,
                reroute=reroute,
                failover=args.failover,
                engine=args.engine,
                probe=probe,
            )
        except ValueError as exc:
            return _engine_refused(args, exc)
        print(
            f"{net.name} @ rate {args.rate} with {args.faults} cable fault(s): "
            f"delivered {r['delivered']}/{r['offered']} "
            f"(avg latency {r['avg_latency']:.1f})"
            + (" DEADLOCK" if r["deadlocked"] else "")
        )
        print(
            f"  recovery: retried={r['retried']} dropped={r['dropped']} "
            f"failed_over={r['failed_over']} reroutes={r['reroutes']}"
        )
        if r["reroutes"]:
            print(
                f"  reconvergence: {r['reconvergence_avg']:.1f} cycles avg "
                f"{r['reconvergence_cycles']}; recomputed tables certified: "
                f"{r['recovered_acyclic']}"
            )
        if r["failed_over"]:
            print(f"  failover latency avg: {r['failover_latency_avg']:.1f} cycles")
        print(f"  post-recovery delivery: {r['post_recovery_rate'] * 100:.2f}%")
        if args.metrics_out:
            _simulate_metrics(
                args,
                net,
                recovery_config(retry, reroute, engine=args.engine),
                r,
                [] if probe is None else probe.timeline_rows(rate=args.rate),
                time.perf_counter() - start,
            )
        return 0 if not r["deadlocked"] else 1
    from repro.experiments.future_simulation import POINT_CONFIG, point_row, point_spec

    if args.check_parity:
        from repro.obs import CounterParityError, assert_counter_parity
        from repro.sim.traffic import uniform_traffic

        try:
            sig = assert_counter_parity(
                net,
                tables,
                lambda: uniform_traffic(
                    net.end_node_ids(), args.rate, args.packet_size, args.seed
                ),
                POINT_CONFIG,
                cycles=args.cycles,
                drain=False,
                engines=("reference", "compiled", "vectorized"),
            )
        except CounterParityError as exc:
            print("COUNTER PARITY FAILED:")
            for diff in exc.diffs[:40]:
                print(f"  {diff}")
            if len(exc.diffs) > 40:
                print(f"  ... and {len(exc.diffs) - 40} more")
            return 1
        print(f"counter parity OK: {len(sig)} signature fields identical")
        return 0
    from repro.sim import api
    from repro.sim.sweep import sample_point

    spec = point_spec(
        net, tables, args.rate, args.cycles, args.packet_size, args.seed, args.engine
    )
    timeline: list[dict[str, Any]] = []
    try:
        if args.sample_interval:
            result, timeline = sample_point(args.sample_interval, spec)
        else:
            result = api.execute(spec)
    except ValueError as exc:
        return _engine_refused(args, exc)
    point = point_row(spec, result)
    print(
        f"{net.name} @ rate {args.rate}: accepted "
        f"{point['accepted_flits_per_node_cycle']:.4f} flits/node/cycle, "
        f"avg latency {point['avg_latency']:.1f}, p99 {point['p99_latency']:.1f}"
        + (" DEADLOCK" if point["deadlocked"] else "")
    )
    if args.metrics_out:
        _simulate_metrics(
            args, net, spec.config, point, timeline, time.perf_counter() - start
        )
    return 0


def cmd_report(args) -> int:
    """Render or diff metrics files written by ``--metrics-out``."""
    from repro.obs import diff_metrics, read_metrics, render_report

    rows = read_metrics(args.file)
    if args.diff:
        other = read_metrics(args.diff)
        diffs = diff_metrics(rows, other)
        if diffs:
            print(f"metrics differ ({args.file} vs {args.diff}):")
            for line in diffs[:40]:
                print(f"  {line}")
            if len(diffs) > 40:
                print(f"  ... and {len(diffs) - 40} more")
            return 1
        print(
            f"metrics identical (deterministic view): {args.file} == {args.diff}"
        )
        return 0
    print(render_report(rows))
    return 0


def _add_recovery_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group(
        "fault recovery",
        "timeout/retry, online re-routing and dual-fabric failover "
        "(see repro.sim.recovery)",
    )
    g.add_argument("--retry", action="store_true",
                   help="enable NIC send-side timeout/retry")
    g.add_argument("--retry-timeout", type=int, default=64, metavar="CYC",
                   help="cycles before the first timeout (default 64)")
    g.add_argument("--retry-backoff", type=float, default=2.0, metavar="X",
                   help="timeout multiplier per retry (default 2.0)")
    g.add_argument("--max-retries", type=int, default=3, metavar="N",
                   help="retransmission budget per packet (default 3)")
    g.add_argument("--reroute", action="store_true",
                   help="recompute + swap certified deadlock-free tables around failures")
    g.add_argument("--detection-delay", type=int, default=32, metavar="CYC",
                   help="cycles from fault to detection (default 32)")
    g.add_argument("--reconvergence-delay", type=int, default=64, metavar="CYC",
                   help="cycles from detection to table swap (default 64)")
    g.add_argument("--failover", action="store_true",
                   help="retarget retry-exhausted packets to a second fabric")
    g.add_argument("--repair-cycle", type=int, default=None, metavar="CYC",
                   help="repair the failed cables at this cycle")
    g.add_argument("--seed", type=int, default=1996,
                   help="traffic / fault-selection base seed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fractanet",
        description="ServerNet fractahedral-topology reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list experiments").set_defaults(
        func=cmd_experiments
    )

    run_p = sub.add_parser("run", help="run an experiment (or 'all')")
    run_p.add_argument("experiment")
    run_p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="fan independent tasks over N worker processes")
    run_p.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write manifests + result rows as JSONL/CSV")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser(
        "sweep", help="latency curve over offered load (parallel with --jobs)"
    )
    sweep_p.add_argument("topology")
    sweep_p.add_argument("--param", action="append", default=[], metavar="key=value")
    sweep_p.add_argument("--rates", default="0.002,0.005,0.01,0.02,0.04",
                         metavar="R1,R2,...", help="offered rates to measure")
    sweep_p.add_argument("--cycles", type=int, default=2000)
    sweep_p.add_argument("--packet-size", type=int, default=8)
    sweep_p.add_argument("--switching", default="wormhole",
                         choices=("wormhole", "store_and_forward"))
    sweep_p.add_argument("--engine", default="auto",
                         choices=("auto", "compiled", "reference",
                                  "vectorized", "vec"),
                         help="simulator engine (all are bit-identical; "
                              "'auto' compiles when the config allows, and "
                              "jobs=1 sweeps batch eligible points through "
                              "the vectorized core)")
    sweep_p.add_argument("--saturation", action="store_true",
                         help="also binary-search the saturation rate")
    sweep_p.add_argument("--jobs", type=int, default=1, metavar="N")
    sweep_p.add_argument("--verbose", action="store_true",
                         help="print per-task timings")
    sweep_p.add_argument("--faults", default="", metavar="K1,K2,...",
                         help="recovery sweep over these failure counts "
                              "instead of a latency curve")
    sweep_p.add_argument("--rate", type=float, default=0.05,
                         help="offered rate for the recovery sweep")
    sweep_p.add_argument("--metrics-out", metavar="FILE", default=None,
                         help="write manifest, points, samples and counters "
                              "as JSONL/CSV")
    sweep_p.add_argument("--sample-interval", type=int, default=0, metavar="CYC",
                         help="sample link utilization / buffer occupancy every "
                              "CYC cycles (0 = off)")
    _add_recovery_flags(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)

    topo_p = sub.add_parser("topologies", help="list topology builders")
    topo_p.add_argument("--describe", metavar="NAME", default=None,
                        help="print a builder's documented, typed parameters")
    topo_p.set_defaults(func=cmd_topologies)

    for name, fn, extra in (
        ("build", cmd_build, False),
        ("show", cmd_show, False),
        ("certify", cmd_certify, False),
        ("simulate", cmd_simulate, True),
    ):
        p = sub.add_parser(name)
        p.add_argument("topology")
        p.add_argument("--param", action="append", default=[], metavar="key=value")
        if name == "build":
            p.add_argument("--save", metavar="FILE",
                           help="write the fabric (with routing) as JSON")
        if extra:
            p.add_argument("--rate", type=float, default=0.01)
            p.add_argument("--cycles", type=int, default=3000)
            p.add_argument("--packet-size", type=int, default=8)
            p.add_argument("--faults", type=int, default=0, metavar="K",
                           help="fail K random cables a quarter into the run")
            p.add_argument("--engine", default="auto",
                           choices=("auto", "compiled", "reference",
                                    "vectorized", "vec"),
                           help="simulator engine (all are bit-identical; "
                                "'vec' is shorthand for 'vectorized', and "
                                "'auto' picks the vectorized core for wide "
                                "single fabrics via the calibrated cost "
                                "model)")
            p.add_argument("--metrics-out", metavar="FILE", default=None,
                           help="write manifest, point and samples as JSONL/CSV")
            p.add_argument("--sample-interval", type=int, default=0,
                           metavar="CYC",
                           help="sample link utilization / buffer occupancy "
                                "every CYC cycles (0 = off)")
            p.add_argument("--check-parity", action="store_true",
                           help="run both engines and assert every counter "
                                "matches (debug / CI smoke)")
            _add_recovery_flags(p)
        p.set_defaults(func=fn)

    report_p = sub.add_parser(
        "report", help="summarize or diff a --metrics-out file"
    )
    report_p.add_argument("file", help="metrics file (.jsonl or .csv)")
    report_p.add_argument("--diff", metavar="OTHER", default=None,
                          help="compare deterministic views; exit 1 on any "
                               "difference")
    report_p.set_defaults(func=cmd_report)

    inspect_p = sub.add_parser("inspect", help="load and certify a saved fabric")
    inspect_p.add_argument("file")
    inspect_p.set_defaults(func=cmd_inspect)

    repro_p = sub.add_parser(
        "reproduce", help="run every experiment and check the paper's numbers"
    )
    repro_p.add_argument("--out", metavar="FILE", default=None,
                         help="also write a machine-readable JSON record")
    repro_p.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="pass a worker count to experiments that sweep")
    repro_p.set_defaults(func=cmd_reproduce)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
