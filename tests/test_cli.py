"""Tests for the command-line interface (repro.cli)."""

import argparse
import io

import pytest

from repro.cli import build_parser, main
from repro.seq import DNA, PROTEIN, format_fasta, random_set
from repro.seq.mutate import mutate_to_identity

ALPHABETS = ("dna", "protein")
FORMATS = ("text", "json")
#: every command's flags: dest -> (option strings, default, choices, type,
#: nargs, required); a flag dropped, added or re-defaulted shows up here
FLAGS = {
    "analyze": {
        "E": (("--evalue",), 10.0, None, float, None, False),
        "M": (("--matrix",), "BLOSUM62", None, None, None, False),
        "alphabet": (("--alphabet",), None, ALPHABETS, None, None, False),
        "archive": ((), None, None, None, None, True),
        "as_json": (("--json",), False, None, None, 0, False),
        "c": (("--c-score",), 0.5, None, float, None, False),
        "fasta": ((), None, None, None, None, True),
        "i": (("--identity",), 0.5, None, float, None, False),
        "k": (("--k",), 4, None, int, None, False),
        "n": (("--n",), 8, None, int, None, False),
    },
    "autoscale": {
        "assert_loop": (("--assert-loop",), False, None, None, 0, False),
        "bench_out": (("--bench-out",), None, None, None, None, False),
        "event_log": (("--event-log",), None, None, None, None, False),
        "format": (("--format",), "text", FORMATS, None, None, False),
        "no_controller": (("--no-controller",), False, None, None, 0, False),
        "scenario": (
            ("--scenario",),
            "flash",
            ("flash", "diurnal"),
            None,
            None,
            False,
        ),
        "seed": (("--seed",), None, None, int, None, False),
    },
    "bench": {
        "bench_dir": (("--bench-dir",), ".", None, None, None, False),
        "figure": (
            (),
            None,
            ("fig5", "fig6a", "fig6b", "fig6c", "fig6d", "all", "diff"),
            None,
            "?",
            False,
        ),
        "files": ((), [], None, None, "*", False),
        "out": (("--out",), None, None, None, None, False),
        "profile": (("--profile",), False, None, None, 0, False),
        "profile_a": (("--profile-a",), None, None, None, None, False),
        "profile_b": (("--profile-b",), None, None, None, None, False),
        "regress": (("--regress",), False, None, None, 0, False),
        "seed": (("--seed",), 23, None, int, None, False),
    },
    "call": {
        "action": (
            ("--action",),
            "snapshot",
            ("start", "snapshot", "stop"),
            None,
            None,
            False,
        ),
        "alphabet": (("--alphabet",), "protein", ALPHABETS, None, None, False),
        "deadline": (("--deadline",), None, None, float, None, False),
        "fasta": (("--fasta",), None, None, None, None, False),
        "host": (("--host",), "127.0.0.1", None, None, None, False),
        "hz": (("--hz",), None, None, float, None, False),
        "no_heal": (("--no-heal",), False, None, None, 0, False),
        "node": (("--node",), None, None, None, None, False),
        "op": (
            (),
            None,
            (
                "query",
                "explain",
                "stats",
                "health",
                "metrics",
                "alerts",
                "scale",
                "scrub",
                "recover",
                "analyze",
                "profile",
            ),
            None,
            None,
            True,
        ),
        "port": (("--port",), 7766, None, int, None, False),
        "retries": (("--retries",), 3, None, int, None, False),
        "seq": (("--seq",), None, None, None, None, False),
        "timeout": (("--timeout",), 30.0, None, float, None, False),
        "top": (("--top",), 5, None, int, None, False),
    },
    "chaos": {
        "group_size": (("--group-size",), 3, None, int, None, False),
        "groups": (("--groups",), 3, None, int, None, False),
        "log": (("--log",), False, None, None, 0, False),
        "probes": (("--probes",), 6, None, int, None, False),
        "replication": (("--replication",), 2, None, int, None, False),
        "seed": (("--seed",), None, None, int, None, False),
        "sequences": (("--sequences",), 18, None, int, None, False),
        "subquery_deadline": (
            ("--subquery-deadline",),
            None,
            None,
            float,
            None,
            False,
        ),
    },
    "explain": {
        "E": (("--evalue",), 10.0, None, float, None, False),
        "M": (("--matrix",), "BLOSUM62", None, None, None, False),
        "alphabet": (("--alphabet",), None, ALPHABETS, None, None, False),
        "archive": ((), None, None, None, None, True),
        "as_json": (("--json",), False, None, None, 0, False),
        "c": (("--c-score",), 0.5, None, float, None, False),
        "fasta": ((), None, None, None, None, True),
        "i": (("--identity",), 0.5, None, float, None, False),
        "k": (("--k",), 4, None, int, None, False),
        "n": (("--n",), 8, None, int, None, False),
    },
    "explore": {
        "assert_families": (
            ("--assert-families",),
            False,
            None,
            None,
            0,
            False,
        ),
        "format": (("--format",), "text", FORMATS, None, None, False),
        "grid": (
            ("--grid",),
            "small",
            ("small", "medium", "full"),
            None,
            None,
            False,
        ),
        "out": (("--out",), None, None, None, None, False),
        "queries": (("--queries",), 6, None, int, None, False),
        "seed": (("--seed",), None, None, int, None, False),
    },
    "index": {
        "alphabet": (("--alphabet",), "protein", ALPHABETS, None, None, False),
        "fasta": ((), None, None, None, None, True),
        "group_size": (("--group-size",), None, None, int, None, False),
        "groups": (("--groups",), None, None, int, None, False),
        "nodes": (("--nodes",), 10, None, int, None, False),
        "out": (("--out",), None, None, None, None, True),
        "replication": (("--replication",), 1, None, int, None, False),
        "seed": (("--seed",), 42, None, int, None, False),
        "segment_length": (
            ("--segment-length",),
            None,
            None,
            int,
            None,
            False,
        ),
    },
    "info": {
        "archive": ((), None, None, None, None, True),
        "balance": (("--balance",), False, None, None, 0, False),
    },
    "profile": {
        "as_json": (("--json",), False, None, None, 0, False),
        "hz": (("--hz",), 67.0, None, float, None, False),
        "out": (("--out",), None, None, None, None, False),
        "queries": (("--queries",), 2, None, int, None, False),
        "seed": (("--seed",), None, None, int, None, False),
        "top": (("--top",), 10, None, int, None, False),
    },
    "query": {
        "E": (("--evalue",), 10.0, None, float, None, False),
        "M": (("--matrix",), "BLOSUM62", None, None, None, False),
        "alphabet": (("--alphabet",), None, ALPHABETS, None, None, False),
        "archive": ((), None, None, None, None, True),
        "c": (("--c-score",), 0.5, None, float, None, False),
        "fasta": ((), None, None, None, None, True),
        "i": (("--identity",), 0.5, None, float, None, False),
        "k": (("--k",), 4, None, int, None, False),
        "n": (("--n",), 8, None, int, None, False),
        "top": (("--top",), 5, None, int, None, False),
    },
    "recover": {
        "assert_identical": (
            ("--assert-identical",),
            False,
            None,
            None,
            0,
            False,
        ),
        "event_log": (("--event-log",), None, None, None, None, False),
        "format": (("--format",), "text", FORMATS, None, None, False),
        "group_size": (("--group-size",), 3, None, int, None, False),
        "groups": (("--groups",), 3, None, int, None, False),
        "log": (("--log",), False, None, None, 0, False),
        "probes": (("--probes",), 6, None, int, None, False),
        "replication": (("--replication",), 2, None, int, None, False),
        "seed": (("--seed",), None, None, int, None, False),
        "sequences": (("--sequences",), 18, None, int, None, False),
    },
    "scrub": {
        "assert_resolved": (
            ("--assert-resolved",),
            False,
            None,
            None,
            0,
            False,
        ),
        "event_log": (("--event-log",), None, None, None, None, False),
        "flips": (("--flips",), 2, None, int, None, False),
        "format": (("--format",), "text", FORMATS, None, None, False),
        "group_size": (("--group-size",), 3, None, int, None, False),
        "groups": (("--groups",), 2, None, int, None, False),
        "log": (("--log",), False, None, None, 0, False),
        "probes": (("--probes",), 6, None, int, None, False),
        "replication": (("--replication",), 2, None, int, None, False),
        "seed": (("--seed",), None, None, int, None, False),
        "sequences": (("--sequences",), 12, None, int, None, False),
    },
    "serve": {
        "archive": ((), None, None, None, None, True),
        "autoscale": (("--autoscale",), False, None, None, 0, False),
        "cache_size": (("--cache-size",), 1024, None, int, None, False),
        "cache_ttl": (("--cache-ttl",), None, None, float, None, False),
        "host": (("--host",), "127.0.0.1", None, None, None, False),
        "max_pending": (("--max-pending",), 64, None, int, None, False),
        "no_tracing": (("--no-tracing",), False, None, None, 0, False),
        "port": (("--port",), 7766, None, int, None, False),
        "slow_log_size": (("--slow-log-size",), 32, None, int, None, False),
        "slow_query_threshold": (
            ("--slow-query-threshold",),
            None,
            None,
            float,
            None,
            False,
        ),
    },
    "tier": {
        "assert_equivalent": (
            ("--assert-equivalent",),
            False,
            None,
            None,
            0,
            False,
        ),
        "bench_out": (("--bench-out",), None, None, None, None, False),
        "cache_fraction": (
            ("--cache-fraction",),
            0.1,
            None,
            float,
            None,
            False,
        ),
        "families": (("--families",), 30, None, int, None, False),
        "format": (("--format",), "text", FORMATS, None, None, False),
        "members": (("--members",), 5, None, int, None, False),
        "seed": (("--seed",), None, None, int, None, False),
    },
    "trace": {
        "E": (("--evalue",), 10.0, None, float, None, False),
        "M": (("--matrix",), "BLOSUM62", None, None, None, False),
        "alphabet": (("--alphabet",), None, ALPHABETS, None, None, False),
        "archive": ((), None, None, None, None, True),
        "c": (("--c-score",), 0.5, None, float, None, False),
        "fasta": ((), None, None, None, None, True),
        "i": (("--identity",), 0.5, None, float, None, False),
        "k": (("--k",), 4, None, int, None, False),
        "metrics": (("--metrics",), False, None, None, 0, False),
        "n": (("--n",), 8, None, int, None, False),
        "out": (("--out",), None, None, None, None, False),
    },
    "watch": {
        "assert_cycle": (("--assert-cycle",), None, None, None, None, False),
        "event_log": (("--event-log",), None, None, None, None, False),
        "format": (("--format",), "text", FORMATS, None, None, False),
        "gateway": (("--gateway",), False, None, None, 0, False),
        "group_size": (("--group-size",), 3, None, int, None, False),
        "groups": (("--groups",), 3, None, int, None, False),
        "host": (("--host",), "127.0.0.1", None, None, None, False),
        "interval": (("--interval",), 2.0, None, float, None, False),
        "once": (("--once",), False, None, None, 0, False),
        "port": (("--port",), 7766, None, int, None, False),
        "probes": (("--probes",), 6, None, int, None, False),
        "replication": (("--replication",), 1, None, int, None, False),
        "seed": (("--seed",), None, None, int, None, False),
        "subquery_deadline": (
            ("--subquery-deadline",),
            None,
            None,
            float,
            None,
            False,
        ),
        "timeout": (("--timeout",), 30.0, None, float, None, False),
    },
}


def flag_spec(parser: argparse.ArgumentParser) -> dict:
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    return {
        name: {
            a.dest: (tuple(a.option_strings), a.default,
                     None if a.choices is None else tuple(a.choices),
                     a.type, a.nargs, a.required)
            for a in command._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, command in commands.choices.items()
    }


@pytest.fixture(scope="module")
def fasta_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    db = random_set(count=8, length=80, alphabet=PROTEIN, rng=401, id_prefix="r")
    refs = base / "refs.fasta"
    refs.write_text(format_fasta(db.records))
    probe = mutate_to_identity(db.records[2], 0.9, rng=1, seq_id="probe")
    queries = base / "queries.fasta"
    queries.write_text(format_fasta([probe]))
    return base, refs, queries, db


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_index_args(self):
        args = build_parser().parse_args(
            ["index", "db.fasta", "--out", "x.npz", "--nodes", "6"]
        )
        assert args.command == "index"
        assert args.nodes == 6

    def test_bench_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig99"])

    def test_flags_unchanged(self):
        assert flag_spec(build_parser()) == FLAGS


class TestIndexInfoQuery:
    def test_full_workflow(self, fasta_files):
        base, refs, queries, db = fasta_files
        archive = base / "deploy.npz"
        out = io.StringIO()

        code = main(
            ["index", str(refs), "--out", str(archive), "--nodes", "4",
             "--seed", "3"],
            out=out,
        )
        assert code == 0
        assert "indexed" in out.getvalue()
        assert archive.exists()

        out = io.StringIO()
        assert main(["info", str(archive)], out=out) == 0
        info = out.getvalue()
        assert "sequences:       8" in info
        assert "protein" in info

        out = io.StringIO()
        code = main(
            ["query", str(archive), str(queries), "--top", "3",
             "--identity", "0.6"],
            out=out,
        )
        assert code == 0
        result = out.getvalue()
        assert "# probe:" in result
        assert "r-000002" in result  # the probe's source ranks in the top hits

    def test_index_with_explicit_shape(self, fasta_files):
        base, refs, _, _ = fasta_files
        archive = base / "shaped.npz"
        out = io.StringIO()
        code = main(
            ["index", str(refs), "--out", str(archive), "--groups", "2",
             "--group-size", "2", "--replication", "2", "--seed", "5"],
            out=out,
        )
        assert code == 0
        out = io.StringIO()
        main(["info", str(archive)], out=out)
        assert "2 groups x 2 nodes (replication 2)" in out.getvalue()


class TestServeAndCall:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "deploy.npz"])
        assert args.command == "serve"
        assert args.port == 7766
        assert args.max_pending == 64
        assert args.cache_ttl is None

    def test_call_parser(self):
        args = build_parser().parse_args(
            ["call", "query", "--seq", "MKVA", "--deadline", "2.5"]
        )
        assert args.op == "query"
        assert args.deadline == 2.5
        with pytest.raises(SystemExit):
            build_parser().parse_args(["call", "explode"])

    @pytest.fixture(scope="class")
    def gateway(self, mendel):
        from repro.serve.server import BackgroundServer

        service = mendel.service()
        with BackgroundServer(service) as server:
            yield server
        service.close()

    def test_call_health(self, gateway):
        out = io.StringIO()
        code = main(
            ["call", "health", "--host", gateway.host,
             "--port", str(gateway.port)],
            out=out,
        )
        assert code == 0
        assert '"status": "ok"' in out.getvalue()

    def test_call_query_and_stats(self, gateway, protein_db):
        seq = protein_db.records[0].text[:40]
        out = io.StringIO()
        code = main(
            ["call", "query", "--seq", seq, "--top", "3",
             "--host", gateway.host, "--port", str(gateway.port)],
            out=out,
        )
        assert code == 0
        assert '"ok": true' in out.getvalue()
        out = io.StringIO()
        assert main(
            ["call", "stats", "--host", gateway.host,
             "--port", str(gateway.port)],
            out=out,
        ) == 0
        assert '"received"' in out.getvalue()

    def test_call_query_needs_exactly_one_source(self, gateway):
        assert main(
            ["call", "query", "--host", gateway.host,
             "--port", str(gateway.port)],
            out=io.StringIO(),
        ) == 2

    def test_call_unreachable_is_structured(self):
        out = io.StringIO()
        code = main(
            ["call", "health", "--port", "1", "--retries", "0",
             "--timeout", "0.2"],
            out=out,
        )
        assert code == 1
        assert '"error": "unavailable"' in out.getvalue()

    def test_call_metrics(self, gateway, protein_db):
        seq = protein_db.records[1].text[:40]
        main(
            ["call", "query", "--seq", seq,
             "--host", gateway.host, "--port", str(gateway.port)],
            out=io.StringIO(),
        )
        out = io.StringIO()
        code = main(
            ["call", "metrics", "--host", gateway.host,
             "--port", str(gateway.port)],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "# TYPE repro_queries_total counter" in text
        assert "repro_serve_requests_total" in text


class TestTrace:
    def test_trace_prints_span_trees_and_writes_chrome_json(
        self, fasta_files, tmp_path
    ):
        import json

        base, refs, queries, _ = fasta_files
        archive = base / "traced.npz"
        code = main(
            ["index", str(refs), "--out", str(archive), "--nodes", "4",
             "--seed", "3"],
            out=io.StringIO(),
        )
        assert code == 0

        trace_path = tmp_path / "trace.json"
        out = io.StringIO()
        code = main(
            ["trace", str(archive), str(queries), "--identity", "0.6",
             "--out", str(trace_path)],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "# probe [t" in text
        for stage in ("receive", "route", "fanout", "gapped", "reply"):
            assert stage in text
        assert "wrote" in text

        payload = json.loads(trace_path.read_text())
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        for event in complete:
            for key in ("ph", "ts", "dur", "pid", "tid", "name"):
                assert key in event

    def test_trace_metrics_flag(self, fasta_files):
        base, refs, queries, _ = fasta_files
        archive = base / "traced2.npz"
        main(
            ["index", str(refs), "--out", str(archive), "--nodes", "4",
             "--seed", "3"],
            out=io.StringIO(),
        )
        out = io.StringIO()
        code = main(
            ["trace", str(archive), str(queries), "--identity", "0.6",
             "--metrics"],
            out=out,
        )
        assert code == 0
        assert "repro_queries_total" in out.getvalue()


class TestDurabilityCommands:
    def test_recover_asserts_byte_identity(self, tmp_path):
        import json

        log_path = tmp_path / "events.json"
        out = io.StringIO()
        code = main(
            ["recover", "--groups", "2", "--sequences", "12",
             "--probes", "2", "--seed", "0", "--format", "json",
             "--assert-identical", "--event-log", str(log_path)],
            out=out,
        )
        assert code == 0
        frame = json.loads(out.getvalue())
        assert frame["identical"] is True
        assert frame["blocks_recovered"] > 0
        assert json.loads(log_path.read_text()), "event log must not be empty"

    def test_scrub_asserts_resolution(self, tmp_path):
        import json

        out = io.StringIO()
        code = main(
            ["scrub", "--sequences", "12", "--probes", "2", "--flips", "1",
             "--seed", "0", "--format", "json", "--assert-resolved"],
            out=out,
        )
        assert code == 0
        frame = json.loads(out.getvalue())
        assert frame["resolved"] is True
        assert frame["wrong_answers"] == []
        assert "bit_flip" in frame["event_chain"]

    def test_scrub_text_table(self):
        out = io.StringIO()
        code = main(
            ["scrub", "--sequences", "12", "--probes", "2", "--flips", "1",
             "--seed", "0"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "bit flips injected" in text
        assert "resolved" in text


class TestSearchInputErrors:
    """A record a search command cannot run is a usage error: one
    ``error: <id>: ...`` line on stderr, exit 2, nothing on stdout."""

    @pytest.fixture(scope="class")
    def archives(self, fasta_files):
        base, refs, _, _ = fasta_files
        protein, dna = base / "errors-protein.npz", base / "errors-dna.npz"
        genes = random_set(count=4, length=90, alphabet=DNA, rng=7,
                           id_prefix="g")
        (base / "genes.fasta").write_text(format_fasta(genes.records))
        (base / "gene.fasta").write_text(format_fasta(genes.records[:1]))
        for fasta, alphabet, archive in ((refs, "protein", protein),
                                         (base / "genes.fasta", "dna", dna)):
            assert main(["index", str(fasta), "--alphabet", alphabet,
                         "--out", str(archive), "--nodes", "4"],
                        out=io.StringIO()) == 0
        return base, protein, dna

    @staticmethod
    def rejects(capsys, argv, seq_id) -> str:
        out = io.StringIO()
        assert main(argv, out=out) == 2
        assert out.getvalue() == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: {seq_id}: "), err
        assert err.count("\n") == 1 and "Traceback" not in err
        return err

    @pytest.mark.parametrize("command", ["explain", "trace", "analyze"])
    def test_only_query_translates_dna(self, archives, capsys, command):
        base, protein, _ = archives
        gene = str(base / "gene.fasta")
        err = self.rejects(
            capsys, [command, str(protein), gene, "--alphabet", "dna"],
            "g-000000",
        )
        assert "dna query against a protein index" in err
        out = io.StringIO()
        assert main(["query", str(protein), gene, "--alphabet", "dna"],
                    out=out) == 0
        assert out.getvalue().startswith("# g-000000:")

    @pytest.mark.parametrize("command",
                             ["query", "explain", "trace", "analyze"])
    def test_protein_against_a_dna_index(self, archives, fasta_files, capsys,
                                         command):
        _, _, dna = archives
        queries = str(fasta_files[2])
        err = self.rejects(
            capsys, [command, str(dna), queries, "--alphabet", "protein"],
            "probe",
        )
        assert "protein query against a dna index" in err

    @pytest.mark.parametrize("command",
                             ["query", "explain", "trace", "analyze"])
    def test_record_shorter_than_the_segment(self, archives, capsys,
                                             command):
        base, protein, _ = archives
        short = base / "short.fasta"
        short.write_text(">long\n" + "MKVLAWG" * 4 + "\n>tiny\nMKVLA\n")
        err = self.rejects(capsys, [command, str(protein), str(short)],
                           "tiny")
        assert "5 residues" in err

    def test_translated_record_shorter_than_the_segment(self, archives,
                                                        capsys):
        base, protein, _ = archives
        short = base / "short-gene.fasta"
        short.write_text(">codons\n" + "ATG" * 7 + "\n")
        err = self.rejects(
            capsys, ["query", str(protein), str(short), "--alphabet", "dna"],
            "codons",
        )
        assert "7 residues once translated" in err

    #: unparsable FASTA text -> what the error says after the file name
    UNPARSABLE = {
        "MKVLAWGMKV\n>late\nMKVLAWG\n":
            "sequence data before any FASTA header at line 1",
        ">bad\nMKV!LAWGMKV\n": "bad: invalid protein letter '!' at position 3",
        ">a\n>b\nMKVLAWGMKV\n": "a: empty record",
    }

    @pytest.mark.parametrize("text", list(UNPARSABLE))
    def test_unparsable_fasta_names_the_file(self, archives, capsys, text):
        base, protein, _ = archives
        broken = base / "broken.fasta"
        broken.write_text(text)
        err = self.rejects(capsys, ["explain", str(protein), str(broken)],
                           str(broken))
        assert err == f"error: {broken}: {self.UNPARSABLE[text]}\n"
