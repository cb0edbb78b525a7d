"""Command-line interface; ``python -m repro <command> --help`` lists a
command's flags.

::

    python -m repro index refs.fasta --alphabet protein --out deploy.npz
    python -m repro info deploy.npz
    python -m repro query deploy.npz queries.fasta --top 5
    python -m repro explain deploy.npz queries.fasta
    python -m repro trace deploy.npz queries.fasta --out trace.json
    python -m repro bench fig6a
    python -m repro serve deploy.npz --port 7766
    python -m repro call query --seq MKV... --port 7766
    python -m repro chaos --replication 2 --seed 0
    python -m repro watch --once --format json

The search commands (``query``, ``explain``, ``trace``, ``analyze``) share
one prelude, :func:`_open_search`: load the archive, read the query FASTA,
take the paper's Table I parameters, and reject a record the command cannot
run as a usage error (exit 2).  The scenario commands (``chaos``, ``watch``,
``autoscale``, ``recover``, ``scrub``, ``tier``) build their own seeded
deployment and run through one table, :data:`_SCENARIOS`; ``call`` builds
its frames from the gateway's op table, :data:`repro.serve.protocol.OPS`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.bench.figures import FIGURES
from repro.bench.harness import format_table
from repro.bench.regress import bench_report, suite_deployment
from repro.core import Mendel, QueryParams, load_index, save_index
from repro.core.autoconfig import suggest_config
from repro.core.query import QueryEngine
from repro.faults.scenario import run_kill_recover_scenario
from repro.obs.dashboard import render_frame
from repro.scale.scenario import run_diurnal_scenario, run_flash_crowd_scenario
from repro.scenario import SWEEP_PARAMS, Outcome, sweep_queries
from repro.seq.fasta import read_fasta
from repro.seq.records import SequenceSet
from repro.serve.protocol import OPS
from repro.store.scenario import run_durability_scenario, run_scrub_scenario
from repro.tier.scenario import run_tier_scenario

#: ``--alphabet`` choices
_ALPHABETS = ("dna", "protein")


class _UsageError(Exception):
    """Input a command cannot run; :func:`main` prints ``error: <message>``
    and exits 2, the usage-error code."""


# -- flag groups ------------------------------------------------------------
# Flags several commands share are declared once, in a parent parser built
# fresh per command: argparse hands a parent's actions to the child, so a
# shared parent would let one command's ``set_defaults`` move another's.


def _archive_group() -> argparse.ArgumentParser:
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument("archive", help="saved .npz deployment")
    return group


def _search_group() -> argparse.ArgumentParser:
    """The archive, the query FASTA and the paper's Table I query
    parameters (§V-B): what :func:`_open_search` reads."""
    group = argparse.ArgumentParser(add_help=False,
                                    parents=[_archive_group()])
    group.add_argument("fasta", help="query FASTA file")
    group.add_argument("--alphabet", choices=_ALPHABETS, default=None,
                       help="query alphabet (default: index's)")
    group.add_argument("--k", type=int, default=4)
    group.add_argument("--n", type=int, default=8)
    group.add_argument("--identity", type=float, default=0.5, dest="i")
    group.add_argument("--c-score", type=float, default=0.5, dest="c")
    group.add_argument("--matrix", default="BLOSUM62", dest="M")
    group.add_argument("--evalue", type=float, default=10.0, dest="E")
    return group


def _seeded_group() -> argparse.ArgumentParser:
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument("--seed", type=int, default=None,
                       help="run seed (default: $CHAOS_SEED or 0)")
    return group


def _output_group(*flags: str) -> argparse.ArgumentParser:
    """Those of ``--format``, ``--event-log``, ``--bench-out`` and
    ``--log`` that *flags* names."""
    group = argparse.ArgumentParser(add_help=False)
    if "--format" in flags:
        group.add_argument("--format", choices=("text", "json"),
                           default="text")
    if "--event-log" in flags:
        group.add_argument("--event-log", default=None,
                           help="write the run's event log JSON here")
    if "--bench-out" in flags:
        group.add_argument("--bench-out", default=None,
                           help="write a BENCH-schema summary JSON here")
    if "--log" in flags:
        group.add_argument("--log", action="store_true",
                           help="print the chaos timeline")
    return group


def _shape_group() -> argparse.ArgumentParser:
    """The cluster a scenario command builds; a command moves a default
    with ``set_defaults``."""
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument("--replication", type=int, default=2,
                       help="copies per block (1 makes a kill visible)")
    group.add_argument("--groups", type=int, default=3)
    group.add_argument("--group-size", type=int, default=3)
    group.add_argument("--probes", type=int, default=6,
                       help="probe queries in the run")
    return group


def _gateway_group(client: bool = True) -> argparse.ArgumentParser:
    """A gateway's address, and for a client its socket timeout."""
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument("--host", default="127.0.0.1")
    group.add_argument("--port", type=int, default=7766)
    if client:
        group.add_argument("--timeout", type=float, default=30.0)
    return group


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mendel: distributed similarity search over sequencing data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    index = sub.add_parser("index", help="build and save a deployment")
    index.add_argument("fasta", help="reference FASTA file")
    index.add_argument("--alphabet", choices=_ALPHABETS, default="protein")
    index.add_argument("--out", required=True, help="output archive (.npz)")
    index.add_argument("--nodes", type=int, default=10,
                       help="node budget for auto-configuration")
    index.add_argument("--groups", type=int, default=None,
                       help="explicit group count (overrides auto)")
    index.add_argument("--group-size", type=int, default=None,
                       help="explicit nodes per group (overrides auto)")
    index.add_argument("--replication", type=int, default=1)
    index.add_argument("--segment-length", type=int, default=None)
    index.add_argument("--seed", type=int, default=42)

    info = sub.add_parser("info", help="summarise a saved deployment",
                          parents=[_archive_group()])
    info.add_argument("--balance", action="store_true",
                      help="append the two-tier balance audit (Fig. 5)")

    query = sub.add_parser("query", help="search a saved deployment",
                           parents=[_search_group()])
    query.add_argument("--top", type=int, default=5,
                       help="alignments to print per query")

    bench = sub.add_parser(
        "bench", help="rerun a paper figure or the perf suite, or diff two "
                      "BENCH files")
    bench.add_argument("figure", nargs="?", default=None,
                       choices=sorted(FIGURES) + ["all", "diff"])
    bench.add_argument("files", nargs="*", default=[],
                       help="with 'diff': baseline and current BENCH_<n>.json")
    bench.add_argument("--out", default=None,
                       help="with 'all': the markdown report; with 'diff': "
                            "the attribution (default: ATTRIBUTION.md)")
    bench.add_argument("--regress", action="store_true",
                       help="run the perf suite, write BENCH_<n>.json, and "
                            "diff against the previous run")
    bench.add_argument("--bench-dir", default=".",
                       help="directory of BENCH_<n>.json files (default: .)")
    bench.add_argument("--seed", type=int, default=23,
                       help="with --regress: workload seed")
    bench.add_argument("--profile", action="store_true",
                       help="with --regress: also write PROFILE_<n>.json")
    bench.add_argument("--profile-a", default=None,
                       help="with 'diff': baseline PROFILE (default: by A)")
    bench.add_argument("--profile-b", default=None,
                       help="with 'diff': current PROFILE (default: by B)")

    serve = sub.add_parser(
        "serve", help="serve a saved deployment over TCP",
        parents=[_archive_group(), _gateway_group(client=False)])
    serve.add_argument("--max-pending", type=int, default=64,
                       help="admission bound before load shedding")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="result-cache capacity (0 disables caching)")
    serve.add_argument("--cache-ttl", type=float, default=None,
                       help="result-cache TTL in seconds (default: no expiry)")
    serve.add_argument("--slow-query-threshold", type=float, default=None,
                       help="log requests slower than this (wall seconds)")
    serve.add_argument("--slow-log-size", type=int, default=32,
                       help="slow-query log length surfaced via STATS")
    serve.add_argument("--no-tracing", action="store_true",
                       help="disable per-request span recording")
    serve.add_argument("--autoscale", action="store_true",
                       help="attach the elastic autoscaler")

    chaos = sub.add_parser(
        "chaos", help="run the scripted kill/recover fault-injection scenario",
        parents=[_shape_group(), _seeded_group(), _output_group("--log")])
    chaos.add_argument("--sequences", type=int, default=18,
                       help="synthetic reference sequences")
    chaos.add_argument("--subquery-deadline", type=float, default=None,
                       help="per-subquery deadline in simulated seconds")

    explain = sub.add_parser(
        "explain", help="EXPLAIN queries: routing, fan-out, attrition funnel",
        parents=[_search_group()])
    explain.add_argument("--json", action="store_true", dest="as_json",
                         help="print structured plans as JSON instead")

    call = sub.add_parser("call", help="call a running gateway",
                          parents=[_gateway_group()])
    call.add_argument("op", choices=tuple(OPS))
    call.add_argument("--seq", default=None,
                      help="query residues (op=query)")
    call.add_argument("--fasta", default=None,
                      help="query every record of this FASTA file (op=query)")
    call.add_argument("--alphabet", choices=_ALPHABETS, default="protein",
                      help="alphabet for --fasta parsing")
    call.add_argument("--deadline", type=float, default=None,
                      help="per-request deadline in seconds")
    call.add_argument("--top", type=int, default=5,
                      help="alignments to return per query")
    call.add_argument("--retries", type=int, default=3)
    call.add_argument("--node", default=None,
                      help="node to restart (op=recover; default: all dead)")
    call.add_argument("--no-heal", action="store_true",
                      help="detect without healing (op=scrub)")
    call.add_argument("--action", choices=("start", "snapshot", "stop"),
                      default="snapshot", help="op=profile: lifecycle action")
    call.add_argument("--hz", type=float, default=None,
                      help="op=profile: sampling rate on start")

    watch = sub.add_parser(
        "watch",
        help="health dashboard: rolling SLIs, burn-rate alerts, event tail",
        parents=[_gateway_group(), _shape_group(), _seeded_group(),
                 _output_group("--format", "--event-log")])
    watch.set_defaults(replication=1)
    watch.add_argument("--gateway", action="store_true",
                       help="poll a running gateway's ALERTS op instead of "
                            "running the headless chaos scenario")
    watch.add_argument("--once", action="store_true",
                       help="render one frame and exit (CI mode)")
    watch.add_argument("--interval", type=float, default=2.0,
                       help="refresh period in seconds (live mode)")
    watch.add_argument("--subquery-deadline", type=float, default=None)
    watch.add_argument("--assert-cycle", default=None, metavar="SLO",
                       help="exit 1 unless SLO fired and then resolved")

    autoscale = sub.add_parser(
        "autoscale", help="drive the elastic control loop through traffic",
        parents=[_seeded_group(),
                 _output_group("--format", "--event-log", "--bench-out")])
    autoscale.add_argument("--scenario", choices=("flash", "diurnal"),
                           default="flash",
                           help="calm/burst/tail, or two day/night cycles")
    autoscale.add_argument("--no-controller", action="store_true",
                           help="the same traffic without the scaler")
    autoscale.add_argument("--assert-loop", action="store_true",
                           help="exit 1 unless an alert fired, the scaler "
                                "acted, and the alert resolved")

    recover = sub.add_parser(
        "recover", help="crash nodes mid-batch, restart from snapshot+WAL, "
                        "compare answers with an uncrashed control",
        parents=[_shape_group(), _seeded_group(),
                 _output_group("--format", "--event-log", "--log")])
    recover.add_argument("--sequences", type=int, default=18,
                         help="synthetic reference sequences")
    recover.add_argument("--assert-identical", action="store_true",
                         help="exit 1 unless the answers are byte-identical")

    scrub = sub.add_parser(
        "scrub", help="inject silent bit rot, scrub it out, prove no query "
                      "served rotted bytes",
        parents=[_shape_group(), _seeded_group(),
                 _output_group("--format", "--event-log", "--log")])
    scrub.set_defaults(groups=2)
    scrub.add_argument("--sequences", type=int, default=12,
                       help="synthetic reference sequences")
    scrub.add_argument("--flips", type=int, default=2,
                       help="bit flips injected into durable blocks")
    scrub.add_argument("--assert-resolved", action="store_true",
                       help="exit 1 unless every flip was healed and no "
                            "answer was wrong")

    tier = sub.add_parser(
        "tier", help="spill to compressed block files, compare cold answers "
                     "with all-RAM, measure capacity headroom",
        parents=[_seeded_group(), _output_group("--format", "--bench-out")])
    tier.add_argument("--families", type=int, default=30,
                      help="synthetic reference families")
    tier.add_argument("--members", type=int, default=5,
                      help="members per family")
    tier.add_argument("--cache-fraction", type=float, default=0.10,
                      help="cold-phase RAM cache as a fraction of the corpus")
    tier.add_argument("--assert-equivalent", action="store_true",
                      help="exit 1 unless every tiered phase answered "
                           "byte-identically to all-RAM")

    trace = sub.add_parser(
        "trace", help="profile queries: span trees plus a Chrome trace JSON",
        parents=[_search_group()])
    trace.add_argument("--out", default=None,
                       help="write Chrome trace-event JSON here")
    trace.add_argument("--metrics", action="store_true",
                       help="also print the Prometheus metrics exposition")

    analyze = sub.add_parser(
        "analyze", help="cluster queries into span-shape families and "
                        "profile the critical path",
        parents=[_search_group()])
    analyze.add_argument("--json", action="store_true", dest="as_json",
                         help="print the summary as JSON instead")

    explore = sub.add_parser(
        "explore", help="sweep a scenario grid and write a ranked REPORT.md "
                        "explaining each slow cell by its trace families",
        parents=[_seeded_group(), _output_group("--format")])
    explore.add_argument("--grid", choices=("small", "medium", "full"),
                         default="small")
    explore.add_argument("--queries", type=int, default=6,
                         help="queries per cell")
    explore.add_argument("--out", default=None,
                         help="directory for REPORT.md and per-cell JSON")
    explore.add_argument("--assert-families", action="store_true",
                         help="exit 1 unless every cell names a slow-query "
                              "family with exemplar trace ids")

    profile = sub.add_parser(
        "profile", help="seeded capture: sampled stacks tagged with span "
                        "stages plus the deterministic cost profile",
        parents=[_seeded_group()])
    profile.add_argument("--hz", type=float, default=67.0,
                         help="sampling rate for the wall-clock profiler")
    profile.add_argument("--queries", type=int, default=2,
                         help="queries per sweep length")
    profile.add_argument("--out", default=None,
                         help="directory for PROFILE.json, profile.folded "
                              "and profile.speedscope.json")
    profile.add_argument("--top", type=int, default=10,
                         help="rows in the printed hotspot tables")
    profile.add_argument("--json", action="store_true", dest="as_json",
                         help="print the full profile snapshot as JSON")
    return parser


def _cmd_index(args: argparse.Namespace, out) -> int:
    database = read_fasta(args.fasta, args.alphabet)
    config = suggest_config(database, node_budget=args.nodes, seed=args.seed)
    overrides = {}
    if args.groups is not None:
        overrides["group_count"] = args.groups
    if args.group_size is not None:
        overrides["group_size"] = args.group_size
    if args.segment_length is not None:
        overrides["segment_length"] = args.segment_length
    if args.replication != 1:
        overrides["replication"] = args.replication
    mendel = Mendel.build(database, replace(config, **overrides))
    save_index(mendel.index, args.out)
    print(
        f"indexed {mendel.block_count} blocks from {len(database)} sequences "
        f"({database.total_residues} residues) onto {mendel.node_count} nodes; "
        f"saved to {args.out}",
        file=out,
    )
    return 0


def _cmd_info(args: argparse.Namespace, out) -> int:
    index = load_index(args.archive)
    config = index.config
    fractions = sorted(index.load_fractions().values())
    tier = index.tier_report()
    lines = [
        f"alphabet:        {index.alphabet.name}",
        f"sequences:       {len(index.database)}",
        f"residues:        {index.database.total_residues}",
        f"blocks:          {len(index.store)}",
        f"cluster:         {config.group_count} groups x {config.group_size} "
        f"nodes (replication {config.replication})",
        f"segment length:  {config.segment_length}",
        f"load per node:   min {100 * fractions[0]:.2f}% / "
        f"max {100 * fractions[-1]:.2f}%",
        f"bytes on disk:   {tier['bytes_on_disk']}",
        f"compression:     {tier['compression_ratio']:.3f}x",
        f"resident:        {100 * tier['resident_fraction']:.2f}%",
    ]
    if args.balance:
        from repro.cluster.balance import audit

        lines += ["", audit(index).render()]
    print("\n".join(lines), file=out)
    return 0


def _open_search(
    args: argparse.Namespace,
) -> tuple[Mendel, SequenceSet, QueryParams]:
    """The search commands' prelude: the archive's deployment, the query
    FASTA read under ``--alphabet`` (default: the index's), and the Table I
    parameters.  Every record must be one the command can run, else
    :class:`_UsageError` names the first that is not."""
    index = load_index(args.archive)
    indexed = index.alphabet.name
    alphabet = args.alphabet or indexed
    try:
        records = read_fasta(args.fasta, alphabet)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"{args.fasta}: {exc}") from None
    # Only `query` runs DNA against a protein index: as six translated frames.
    translated = (args.command, alphabet, indexed) == ("query", "dna",
                                                       "protein")
    for record in records:
        if alphabet != indexed and not translated:
            hint = (" (only `repro query` translates DNA)"
                    if alphabet == "dna" else "")
            raise _UsageError(f"{record.seq_id}: a {alphabet} query against "
                              f"a {indexed} index{hint}")
        residues = len(record) // 3 if translated else len(record)
        if residues < index.segment_length:
            raise _UsageError(
                f"{record.seq_id}: {residues} residues"
                f"{' once translated' if translated else ''}, fewer than "
                f"the segment length {index.segment_length}")
    params = QueryParams(k=args.k, n=args.n, i=args.i, c=args.c,
                         M=args.M, E=args.E)
    return Mendel(index=index, engine=QueryEngine(index)), records, params


def _cmd_query(args: argparse.Namespace, out) -> int:
    mendel, records, params = _open_search(args)
    for record in records:
        if record.alphabet.name != mendel.index.alphabet.name:
            report = mendel.query_translated(record, params)
        else:
            report = mendel.query(record, params)
        print(f"# {record.seq_id}: {len(report.alignments)} alignments, "
              f"turnaround {report.stats.turnaround * 1e3:.1f} ms", file=out)
        for alignment in report.alignments[: args.top]:
            print(alignment.brief(), file=out)
    return 0


def _cmd_bench(args: argparse.Namespace, out) -> int:
    if args.regress:
        return _cmd_bench_regress(args, out)
    if args.figure == "diff":
        return _cmd_bench_diff(args, out)
    if args.figure is None:
        print("bench: name a figure, 'diff', or pass --regress",
              file=sys.stderr)
        return 2
    if args.figure == "all":
        from repro.bench.report import generate_report

        text = generate_report(max_rows=12)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"report written to {args.out}", file=out)
        else:
            print(text, file=out)
        return 0
    result = FIGURES[args.figure].run()
    print(format_table(result.rows, title=result.name), file=out)
    if result.meta:
        print(f"meta: {result.meta}", file=out)
    failed = [name for name, ok in result.checks().items() if not ok]
    if failed:
        print(f"SHAPE FAIL [{result.name}]: " + "; ".join(failed),
              file=sys.stderr)
        return 1
    print(f"shape OK: {result.name} reproduces the paper's claims", file=out)
    return 0


def _cmd_bench_regress(args: argparse.Namespace, out) -> int:
    from repro.bench import regress
    from repro.obs.profile import (
        CostProfiler,
        install_cost_profiler,
        uninstall_cost_profiler,
    )

    cost = None
    if args.profile:
        cost = install_cost_profiler(CostProfiler())
    baseline = regress.latest_run(args.bench_dir)
    try:
        report = regress.run_suite(seed=args.seed)
    finally:
        if cost is not None:
            uninstall_cost_profiler(cost)
    path = regress.write_report(report, args.bench_dir)
    print(regress.format_report(report), file=out)
    print(f"\nwrote {path}", file=out)
    if cost is not None:
        from repro.bench import attribution

        profile_path = attribution.write_profile(
            attribution.profile_report(cost, seed=args.seed),
            attribution.profile_path_for(path),
        )
        print(f"wrote {profile_path}", file=out)
    if baseline is None:
        print("no previous BENCH_*.json: baseline established", file=out)
        return 0
    _, baseline_path = baseline
    try:
        regressions = regress.compare(report, regress.load_report(baseline_path))
    except regress.SchemaMismatch as exc:
        print(f"baseline skipped: {exc}", file=out)
        return 0
    print(regress.format_comparison(regressions, baseline_path), file=out)
    return 1 if regressions else 0


def _cmd_bench_diff(args: argparse.Namespace, out) -> int:
    from pathlib import Path

    from repro.bench import attribution, regress

    if len(args.files) != 2:
        print("bench diff needs exactly two BENCH files: "
              "repro bench diff A.json B.json", file=sys.stderr)
        return 2
    path_a, path_b = Path(args.files[0]), Path(args.files[1])
    try:
        bench_a = regress.load_report(path_a)
        bench_b = regress.load_report(path_b)
    except (OSError, ValueError) as exc:
        print(f"bench diff: {exc}", file=sys.stderr)
        return 2
    profile_a = attribution.load_profile(
        args.profile_a or attribution.profile_path_for(path_a))
    profile_b = attribution.load_profile(
        args.profile_b or attribution.profile_path_for(path_b))
    result = attribution.diff(
        bench_a, bench_b,
        profile_a=profile_a, profile_b=profile_b,
        label_a=path_a.name, label_b=path_b.name,
    )
    out_path = Path(args.out or "ATTRIBUTION.md")
    attribution.write_attribution(result, out_path)
    profiled = "with" if result["have_profiles"] else "without"
    print(
        f"wrote {out_path}: {len(result['metrics'])} metric delta(s) "
        f"ranked, {profiled} cost-profile attribution",
        file=out,
    )
    return 0


def _cmd_profile(args: argparse.Namespace, out) -> int:
    from repro.obs.profile import Profiler, write_profile_artifacts
    from repro.obs.trace import TraceContext

    seed = args.seed
    profiler = Profiler(hz=args.hz)
    profiler.start()
    try:
        mendel = suite_deployment(seed)
        for record in sweep_queries(mendel, seed, args.queries, "profile"):
            mendel.query(record, SWEEP_PARAMS, trace_ctx=TraceContext())
    finally:
        snap = profiler.stop()
    if args.as_json:
        _print_json(snap, out)
    else:
        sampling = snap["sampling"]
        print(
            f"profile capture (seed {seed}, {sampling['hz']:g} Hz): "
            f"{sampling['samples']} stacks over "
            f"{sampling['elapsed_s']:.2f}s, sampler overhead "
            f"{100 * sampling['overhead']:.2f}%",
            file=out,
        )
        tables = {
            "sampled stage shares": [
                {"stage": row["stage"], "samples": row["samples"],
                 "share": f"{100 * row['share']:.1f}%"}
                for row in sampling["stages"][: args.top]
            ],
            "top functions (self samples)": [
                {"function": row["function"], "self": row["self_samples"],
                 "share": f"{100 * row['share']:.1f}%"}
                for row in sampling["top_functions"][: args.top]
            ],
            "deterministic cost totals": [
                {"counter": name, "total": value}
                for name, value in sorted(snap["cost"]["totals"].items())
            ],
        }
        for title, rows in tables.items():
            if rows:
                print(format_table(rows, title=title), file=out)
    if args.out:
        paths = write_profile_artifacts(args.out, profiler)
        for kind in sorted(paths):
            print(f"wrote {paths[kind]}", file=out)
    return 0


def _cmd_serve(args: argparse.Namespace, out) -> int:
    import asyncio

    from repro.serve.server import QueryServer

    index = load_index(args.archive)
    mendel = Mendel(index=index, engine=QueryEngine(index))
    service = mendel.service(
        max_pending=args.max_pending,
        cache_capacity=args.cache_size,
        cache_ttl=args.cache_ttl,
        tracing=not args.no_tracing,
        slow_query_threshold=args.slow_query_threshold,
        slow_log_size=args.slow_log_size,
    )
    if args.autoscale:
        service.enable_autoscaler()

    async def _run() -> None:
        server = QueryServer(service, host=args.host, port=args.port)
        await server.start()
        print(
            f"serving {len(index.database)} sequences "
            f"({len(index.store)} blocks) on {server.host}:{server.port} "
            f"[max_pending={args.max_pending} "
            f"cache={args.cache_size}]",
            file=out,
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("shutting down", file=out)
    finally:
        service.close()
    return 0


def _cmd_explain(args: argparse.Namespace, out) -> int:
    mendel, records, params = _open_search(args)
    ok = True
    for record in records:
        plan = mendel.explain(record, params)
        if args.as_json:
            _print_json(plan.to_dict(), out)
        else:
            print(plan.render(), file=out)
            print(file=out)
        ok = ok and plan.is_monotone()
    if not ok:
        print("FAIL: funnel stage counts are not monotone non-increasing",
              file=sys.stderr)
        return 1
    return 0


def _call_frames(args: argparse.Namespace):
    """The frames ``repro call`` sends: the op's fields from the flags of
    the same name, unset ones left out.  An op with a ``seq`` field sends
    one frame for ``--seq`` (its id the op's name) or one per ``--fasta``
    record (its id the record's)."""
    flags = {**vars(args), "heal": not args.no_heal}
    fields = {name: flags[name] for name in OPS[args.op]
              if flags.get(name) is not None}
    if "seq" not in OPS[args.op]:
        yield fields
    elif args.seq is not None:
        yield {"id": args.op, **fields}
    else:
        for record in read_fasta(args.fasta, args.alphabet):
            yield {"id": record.seq_id, **fields, "seq": record.text}


#: the ops whose successful reply prints as text: op -> (field, line end);
#: every other reply, and a failed one, prints as JSON
_TEXT_REPLIES = {"explain": ("rendered", "\n"), "metrics": ("metrics", "")}


def _cmd_call(args: argparse.Namespace, out) -> int:
    from repro.serve.client import ServeClient
    from repro.serve.errors import ServeError

    if "seq" in OPS[args.op] and (args.seq is None) == (args.fasta is None):
        print(f"op={args.op} needs exactly one of --seq / --fasta",
              file=sys.stderr)
        return 2
    client = ServeClient(args.host, args.port, timeout=args.timeout,
                         retries=args.retries)
    ok = True
    try:
        for frame in _call_frames(args):
            reply = client.call(args.op, **frame)
            if args.op in _TEXT_REPLIES and reply.get("ok"):
                field, end = _TEXT_REPLIES[args.op]
                print(reply.get(field, ""), file=out, end=end)
            else:
                _print_json(reply, out)
            ok = ok and bool(reply.get("ok"))
    except ServeError as exc:
        print(json.dumps({"ok": False, **exc.to_dict()}, indent=2), file=out)
        return 1
    finally:
        client.close()
    return 0 if ok else 1


def _watch_gateway(args: argparse.Namespace, out) -> int:
    import time as _time

    from repro.serve.client import ServeClient
    from repro.serve.errors import ServeError

    client = ServeClient(args.host, args.port, timeout=args.timeout)
    try:
        while True:
            response = client.call("alerts")
            if not response.get("ok"):
                _print_json(response, out)
                return 1
            frame = {k: v for k, v in response.items()
                     if k not in ("id", "ok")}
            if args.format == "json":
                _print_json(frame, out)
            else:
                print(render_frame(frame), file=out)
            if args.once:
                return 0
            _time.sleep(args.interval)
    except ServeError as exc:
        print(json.dumps({"ok": False, **exc.to_dict()}, indent=2), file=out)
        return 1
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()


def _summary_table(title: str) -> Callable[[Outcome], str]:
    def text(outcome: Outcome) -> str:
        rows = [{"metric": key, "value": value}
                for key, value in outcome.summary_rows()]
        return format_table(rows, title=title)
    return text


def _summary_lines(outcome: Outcome) -> str:
    rows = outcome.summary_rows()
    width = max(len(key) for key, _ in rows)
    return "\n".join(f"{key:<{width}}  {value}" for key, value in rows)


def _chaos_text(result) -> str:
    per_query = [
        {
            "query": report.query_id,
            "coverage": f"{report.coverage:.3f}",
            "degraded": str(report.degraded),
            "failed_nodes": ",".join(report.failed_nodes) or "-",
            "best_hit": (report.best().subject_id
                         if report.best() is not None else "-"),
        }
        for report in result.reports
    ]
    return "\n".join([
        _summary_table("kill one node per group, then recover")(result),
        format_table(per_query, title="per-query reports"),
    ])


def _autoscale_text(result) -> str:
    lines = [_summary_lines(result)]
    if result.actions:
        lines += ["", "topology actions:"]
        for action in result.actions:
            extra = f" -> {action['target']}" if action.get("target") else ""
            lines.append(
                f"  t={action['at'] * 1e3:9.3f} ms  "
                f"{action['action']:<12} {action['group']}{extra}  "
                f"[{action['cause']}]"
            )
    return "\n".join(lines)


@dataclass(frozen=True)
class _Scenario:
    """One scenario command: how its flags become a scenario run, how the
    outcome prints as text, and which flag demands ``outcome.checks()``."""

    run: Callable[[argparse.Namespace], Outcome]
    text: Callable[[Outcome], str]
    assert_flag: str | None = None


def _shape(a: argparse.Namespace) -> dict:
    """The cluster-shape flags (and the seed) as scenario keywords."""
    return {"replication": a.replication, "group_count": a.groups,
            "group_size": a.group_size, "probe_count": a.probes,
            "seed": a.seed}


_SCENARIOS = {
    "chaos": _Scenario(
        run=lambda a: run_kill_recover_scenario(
            **_shape(a), database_size=a.sequences,
            subquery_deadline=a.subquery_deadline),
        text=_chaos_text,
    ),
    # Headless watch: the same experiment, seen through its health monitor.
    "watch": _Scenario(
        run=lambda a: run_kill_recover_scenario(
            **_shape(a), subquery_deadline=a.subquery_deadline),
        text=lambda result: render_frame(result.frame()),
        assert_flag="assert_cycle",
    ),
    "autoscale": _Scenario(
        run=lambda a: (
            run_flash_crowd_scenario if a.scenario == "flash"
            else run_diurnal_scenario
        )(seed=a.seed, controller=not a.no_controller),
        text=_autoscale_text,
        assert_flag="assert_loop",
    ),
    "recover": _Scenario(
        run=lambda a: run_durability_scenario(
            **_shape(a), database_size=a.sequences),
        text=_summary_table("crash, recover from snapshot+WAL, compare"),
        assert_flag="assert_identical",
    ),
    "scrub": _Scenario(
        run=lambda a: run_scrub_scenario(
            **_shape(a), database_size=a.sequences, flip_count=a.flips),
        text=_summary_table("inject bit rot, scrub, heal, verify"),
        assert_flag="assert_resolved",
    ),
    "tier": _Scenario(
        run=lambda a: run_tier_scenario(
            seed=a.seed, families=a.families,
            members_per_family=a.members, cache_fraction=a.cache_fraction,
        ),
        text=_summary_lines,
        assert_flag="assert_equivalent",
    ),
}


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def _print_json(payload, out) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True), file=out)


def _run_scenario(args: argparse.Namespace, out, entry: _Scenario) -> int:
    """Every scenario command: run, write the artifacts asked for, print
    the frame or the text view, then hold the outcome to its checks.
    (A flag a command does not define reads as unset.)"""
    outcome = entry.run(args)
    if getattr(args, "event_log", None):
        _write_json(args.event_log, outcome.monitor.events.to_dicts())
    if getattr(args, "bench_out", None):
        _write_json(args.bench_out, bench_report(
            f"repro-{args.command}", args.seed, outcome.bench_metrics()
        ))
    if getattr(args, "format", "text") == "json":
        _print_json(outcome.frame(), out)
    else:
        print(entry.text(outcome), file=out)
    if getattr(args, "log", False):
        for line in outcome.chaos_log:
            print(line, file=out)
    demanded = getattr(args, entry.assert_flag) if entry.assert_flag else None
    if demanded:
        # --assert-cycle names the SLO to check; the others are switches.
        checks = (outcome.checks() if demanded is True
                  else outcome.checks(demanded))
        failed = [name for name, ok in checks.items() if not ok]
        if failed:
            flag = "--" + entry.assert_flag.replace("_", "-")
            print(f"ASSERT FAIL ({flag}): " + "; ".join(failed),
                  file=sys.stderr)
            return 1
    return 0


def _cmd_trace(args: argparse.Namespace, out) -> int:
    from repro.obs.export import prometheus_text, write_chrome_trace
    from repro.obs.metrics import default_registry
    from repro.obs.trace import TraceContext

    mendel, records, params = _open_search(args)
    roots = []
    for record in records:
        report = mendel.query(record, params, trace_ctx=TraceContext())
        root = report.root_span
        roots.append(root)
        stage_ms = sum(s.sim_duration for s in root.children) * 1e3
        print(
            f"# {record.seq_id} [{report.trace_id}]: "
            f"{len(report.alignments)} alignments, "
            f"turnaround {report.stats.turnaround * 1e3:.3f} ms "
            f"(stages sum to {stage_ms:.3f} ms)",
            file=out,
        )
        print(root.format_tree(), file=out)
    if args.out:
        count = write_chrome_trace(args.out, roots)
        print(f"wrote {count} trace events for {len(roots)} queries to "
              f"{args.out}", file=out)
    if args.metrics:
        print(prometheus_text(default_registry()), file=out, end="")
    return 0


def _cmd_analyze(args: argparse.Namespace, out) -> int:
    import math

    from repro.obs.analyze import (
        cluster_slow_queries,
        critical_path_table,
        query_entry,
    )
    from repro.obs.trace import TraceContext

    mendel, records, params = _open_search(args)
    entries, roots, tiling_ok = [], [], True
    for number, record in enumerate(records):
        ctx = TraceContext(trace_id=f"analyze-q{number:03d}")
        report = mendel.query(record, params, trace_ctx=ctx)
        roots.append(report.root_span)
        entry = query_entry(report)
        self_total = math.fsum(row["self_ms"] for row in entry["critical_path"])
        tiling_ok = tiling_ok and math.isclose(
            self_total, report.stats.turnaround * 1e3,
            rel_tol=1e-9, abs_tol=1e-9)
        entries.append(entry)
    families = cluster_slow_queries(entries)
    critical = critical_path_table(roots)
    if args.as_json:
        _print_json({
            "queries": len(entries),
            "families": families,
            "critical_path": critical,
            "critical_path_tiles_turnaround": tiling_ok,
        }, out)
        return 0 if tiling_ok else 1
    print(f"# {len(entries)} queries, {len(families)} trace families "
          f"(critical-path self-times "
          f"{'tile' if tiling_ok else 'DO NOT tile'} turnaround)",
          file=out)
    print("\n## families", file=out)
    for family in families:
        exemplars = ", ".join(family["exemplar_trace_ids"])
        print(
            f"{family['family']:<44} n={family['count']:<3} "
            f"share={family['share'] * 100:5.1f}% "
            f"mean={family['mean_turnaround_ms']:9.3f}ms "
            f"max={family['max_turnaround_ms']:9.3f}ms  e.g. {exemplars}",
            file=out,
        )
    print("\n## critical path", file=out)
    for row in critical:
        print(
            f"{row['stage']:<18} self={row['self_ms']:9.3f}ms "
            f"({row['share'] * 100:5.1f}%) total={row['total_ms']:9.3f}ms "
            f"steps={row['count']}",
            file=out,
        )
    return 0 if tiling_ok else 1


def _cmd_explore(args: argparse.Namespace, out) -> int:
    from repro.bench.explore import run_explore

    result = run_explore(args.grid, seed=args.seed, query_count=args.queries)
    if args.out:
        paths = result.write(args.out)
        print(f"wrote {len(paths)} artifacts to {args.out}", file=out)
    if args.format == "json":
        _print_json({
            "grid": result.grid,
            "seed": result.seed,
            "cells": [
                {
                    "cell": cell.name,
                    "mean_turnaround_ms": round(cell.mean_turnaround_ms, 3),
                    "max_turnaround_ms": cell.max_turnaround_ms,
                    "slow_queries": len(cell.slow_entries),
                    "degraded": cell.degraded_count,
                    "families": cell.families,
                    "critical_path": cell.critical_path,
                }
                for cell in result.ranked()
            ],
        }, out)
    else:
        print(result.to_markdown(), file=out, end="")
    if args.assert_families:
        bad = [cell.name for cell in result.cells if not cell.families
               or not cell.families[0]["exemplar_trace_ids"]]
        if bad:
            print("ASSERT FAIL: cells without a named slow-query family: "
                  + ", ".join(bad), file=sys.stderr)
            return 1
        print(f"ASSERT OK: all {len(result.cells)} cells named slow-query "
              f"families with exemplar trace ids", file=out)
    return 0


_COMMANDS = {
    "index": _cmd_index,
    "info": _cmd_info,
    "query": _cmd_query,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "call": _cmd_call,
    "trace": _cmd_trace,
    "explain": _cmd_explain,
    "analyze": _cmd_analyze,
    "explore": _cmd_explore,
    "profile": _cmd_profile,
}


def _chaos_seed() -> int:
    """A seeded command's seed when ``--seed`` is not given: $CHAOS_SEED,
    else 0."""
    raw = os.environ.get("CHAOS_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(
            f"CHAOS_SEED must be an integer, got {raw!r}") from None


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) is None:
            args.seed = _chaos_seed()
        if args.command == "watch" and args.gateway:
            return _watch_gateway(args, out)
        if args.command in _SCENARIOS:
            return _run_scenario(args, out, _SCENARIOS[args.command])
        return _COMMANDS[args.command](args, out)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
