"""Command-line interface: exit codes, JSON stability, record round-trips."""

import hashlib
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from hsembed import DegreeTuple, cli, decide, leqq_decomposition
from hsembed.engine import LIOUVILLE, MODES, SYMPLECTIC, WEINSTEIN
from hsembed.order import MoveSequence, _successor_moves

from oracles import canonical_tuples

EXE = [sys.executable, "-m", "hsembed.cli"]


def run_cli(*args):
    return subprocess.run(EXE + list(args), capture_output=True, text=True)


def test_cli_import_skips_dataclasses_and_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize: about a fifth of
    # the CLI's cold start.  Compare sys.modules before and after the
    # import, so what site loads on a given machine does not count.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hsembed.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


ORDER_MODULES = ["hsembed", "hsembed.cli", "hsembed.model", "hsembed.order"]
ENGINE_MODULES = sorted(ORDER_MODULES + ["hsembed.engine"])


@pytest.mark.parametrize(
    "args, modules",
    [
        (["poset", "--n", "2", "--max-sum", "5"], ORDER_MODULES),
        (["leqq", "--source", "3,2,2", "--target", "7,2"], ORDER_MODULES),
        (
            ["spectrum", "--n", "2", "--degrees", "3,2", "--action-cap", "4"],
            sorted(ORDER_MODULES + ["hsembed.indices"]),
        ),
        (["poset", "--n", "2", "--max-sum", "5", "--mode", "symplectic"], ENGINE_MODULES),
        (["decide", "--n", "2", "--source", "3", "--target", "4,2"], ENGINE_MODULES),
        (["decide", "--n", "2", "--source", "3,2,2", "--target", "7,2"], ENGINE_MODULES),
        (
            ["decide", "--n", "2", "--source", "3,3", "--target", "5,5"],
            sorted(ENGINE_MODULES + ["hsembed.lattice", "hsembed.search"]),
        ),
    ],
    ids=["poset", "leqq", "spectrum", "poset-symplectic", "decide", "decide-order",
         "decide-search"],
)
def test_each_subcommand_loads_only_its_own_modules(args, modules):
    # only a query that reaches the witness search loads search and
    # lattice, and only decide and the symplectic poset labels load the
    # engine; compare sys.modules before and after, as above.  The DOT-only
    # poset writes no JSON, in any mode, so it does not load json either,
    # and no command here runs the BFS, so none loads heapq.
    script = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import hsembed.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    hsembed.cli.main(sys.argv[1:])\n"
        "new = set(sys.modules) - before\n"
        "print(sorted(m for m in new if m.startswith('hsembed')))\n"
        "print('json' in new)\n"
        "print('heapq' in new)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    r = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env
    )
    assert r.returncode == 0, r.stderr
    loaded, json_loaded, heapq_loaded = r.stdout.splitlines()
    assert loaded == f"{modules}"
    if args[0] == "poset":
        assert json_loaded == "False"
    assert heapq_loaded == "False"


class TestDecideCommand:
    def test_yes_exit_zero(self):
        r = run_cli("decide", "--n", "2", "--source", "1,1,1", "--target", "2,1")
        assert r.returncode == 0
        blob = json.loads(r.stdout)
        assert blob["verdict"]["kind"] == "YES"
        assert blob["schema_version"] == 2

    def test_no_exit_one(self):
        r = run_cli("decide", "--n", "2", "--source", "3", "--target", "4,2")
        assert r.returncode == 1
        blob = json.loads(r.stdout)
        assert blob["verdict"]["kind"] == "NO"
        assert blob["verdict"]["certificate"]["rule"] == "GCD_SINGLE"

    def test_unknown_exit_two(self):
        r = run_cli(
            "decide", "--n", "2", "--source", "4,6", "--target", "8,2",
            "--mode", "symplectic",
        )
        assert r.returncode == 2
        assert json.loads(r.stdout)["verdict"]["kind"] == "UNKNOWN"

    def test_inputs_echo_canonical_order(self):
        r = run_cli("decide", "--n", "2", "--source", "1,2,1", "--target", "1,2")
        blob = json.loads(r.stdout)
        assert blob["inputs"]["source"] == [2, 1, 1]
        assert blob["inputs"]["target"] == [2, 1]

    def test_human_mode_agrees_on_kind(self):
        js = run_cli("decide", "--n", "2", "--source", "3", "--target", "4,2")
        hu = run_cli(
            "decide", "--n", "2", "--source", "3", "--target", "4,2", "--human"
        )
        assert js.returncode == hu.returncode == 1
        kind = json.loads(js.stdout)["verdict"]["kind"]
        assert f"verdict: {kind}" in hu.stdout

    def test_out_file_adds_wall_time(self, tmp_path):
        out = tmp_path / "record.json"
        r = run_cli(
            "decide", "--n", "2", "--source", "1,1,1", "--target", "2,1",
            "--out", str(out),
        )
        assert r.returncode == 0
        stdout_blob = json.loads(r.stdout)
        file_blob = json.loads(out.read_text())
        assert "wall_time_ms" not in stdout_blob
        assert isinstance(file_blob.pop("wall_time_ms"), int)
        assert file_blob == stdout_blob

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_interrupted_query_leaves_out_alone(self, error, tmp_path, monkeypatch):
        # the record file is opened without truncating it and rewritten only
        # once the query is done
        def interrupted(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "decide", interrupted)
        kept = tmp_path / "keep.json"
        kept.write_bytes(b'{"kept": true}\n')
        with pytest.raises(error):
            cli.main(["decide", "--n", "2", "--source", "3", "--target", "4", "--out", str(kept)])
        assert kept.read_bytes() == b'{"kept": true}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["keep.json"]

    def test_out_replaces_an_existing_record(self, tmp_path):
        kept = tmp_path / "keep.json"
        kept.write_bytes(b'{"kept": true}\n')
        r = run_cli("decide", "--n", "2", "--source", "3,2,2", "--target", "7,2",
                    "--out", str(kept))
        assert r.returncode == 0
        assert json.loads(kept.read_text())["verdict"] == json.loads(r.stdout)["verdict"]
        assert [p.name for p in tmp_path.iterdir()] == ["keep.json"]

    def test_out_writes_through_a_fifo(self, tmp_path):
        fifo = tmp_path / "record.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            code = cli.main(["leqq", "--source", "3,2,2", "--target", "7,2",
                             "--out", str(fifo)])
        finally:
            reader.join(timeout=10)
        assert code == 0 and not reader.is_alive()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert json.loads(received[0])["result"] is True

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
    def test_read_only_out_is_a_usage_error(self, tmp_path):
        kept = tmp_path / "keep.json"
        kept.write_bytes(b'{"kept": true}\n')
        kept.chmod(0o444)
        r = run_cli("decide", "--n", "2", "--source", "3,2,2", "--target", "7,2",
                    "--out", str(kept))
        assert (r.returncode, r.stdout) == (64, "")
        assert kept.read_bytes() == b'{"kept": true}\n'


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ("decide", "--n", "2", "--source", "3,x", "--target", "4"),
            ("decide", "--n", "0", "--source", "1", "--target", "1"),
            ("decide", "--n", "2", "--source", "", "--target", "1"),
            ("decide", "--n", "2", "--source", "0,1", "--target", "1"),
            ("leqq", "--source", "1"),
            ("spectrum", "--n", "2", "--degrees", "1,1"),
            ("bogus",),
            ("leqq", "--source", "3,2,2", "--target", "7,2", "--threads", "2"),
            ("poset", "--n", "2", "--max-sum", "4", "--human"),
            ("poset", "--n", "2", "--max-sum", "-1"),
            ("spectrum", "--n", "2", "--degrees", "2,1", "--action-cap", "-1"),
            ("decide", "--n", "2", "--source", "2", "--target", "3", "--threads", "0"),
            ("decide", "--n", "2.5", "--source", "2", "--target", "3"),
            ("decide", "--n", "2", "--source", "2", "--target", "3", "--time-cap", "inf"),
            ("decide", "--n", "2", "--source", "3,2,2", "--target", "7,2",
             "--out", "/nonexistent/x.json"),
            ("decide", "--n", "2", "--source", "3,,3", "--target", "4"),
            ("decide", "--n", "2", "--source", "3,", "--target", "4"),
        ],
    )
    def test_exit_64_with_stderr(self, args):
        r = run_cli(*args)
        assert r.returncode == 64
        assert r.stderr.strip() != ""
        assert r.stdout == ""

    def test_unwritable_out_fails_before_the_query(self, tmp_path):
        missing = tmp_path / "missing" / "record.json"
        r = run_cli("decide", "--n", "2", "--source", "3,2,2", "--target", "7,2",
                    "--out", str(missing))
        assert (r.returncode, r.stdout) == (64, "")
        assert r.stderr.startswith("error: argument --out: ")

    @pytest.mark.parametrize(
        "args",
        [
            ("decide", "--n", "0", "--source", "3", "--target", "4"),
            ("decide", "--n", "2", "--source", "3"),
            ("poset", "--n", "2", "--max-sum", "4", "--human"),
        ],
        ids=["bad-value", "missing-argument", "unknown-flag"],
    )
    def test_usage_error_leaves_out_alone(self, args, tmp_path):
        kept = tmp_path / "keep.json"
        kept.write_bytes(b'{"kept": true}\n')
        fresh = tmp_path / "fresh.json"
        for out in (kept, fresh):
            r = run_cli(args[0], "--out", str(out), *args[1:])
            assert (r.returncode, r.stdout) == (64, "")
        assert kept.read_bytes() == b'{"kept": true}\n'
        assert not fresh.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--q-cap", "0", "q_cap must be a positive integer, got 0"),
         ("--call-cap", "2.5", "call_cap must be a positive integer, got '2.5'")],
        ids=["q_cap", "call_cap"],
    )
    def test_caps_checked_by_budget(self, flag, value, message):
        r = run_cli("decide", "--n", "2", "--source", "3", "--target", "4", flag, value)
        assert (r.returncode, r.stdout) == (64, "")
        assert r.stderr == f"error: argument {flag}: {message}\n"


class TestLeqqCommand:
    def test_true_with_moves(self):
        r = run_cli("leqq", "--source", "3,2,2", "--target", "7,2")
        assert r.returncode == 0
        blob = json.loads(r.stdout)
        assert blob["result"] is True
        assert len(blob["moves"]["moves"]) == 3

    def test_false_exit_one(self):
        r = run_cli("leqq", "--source", "3,2,2", "--target", "10,1")
        assert r.returncode == 1
        blob = json.loads(r.stdout)
        assert blob["result"] is False and blob["moves"] is None

    def test_equal_tuples_empty_sequence(self):
        r = run_cli("leqq", "--source", "5", "--target", "5")
        assert r.returncode == 0
        blob = json.loads(r.stdout)
        assert blob["result"] is True and blob["moves"]["moves"] == []


class TestSpectrumCommand:
    def test_frozen_class_count(self):
        r = run_cli("spectrum", "--n", "2", "--degrees", "1,1,1", "--action-cap", "1")
        assert r.returncode == 0
        blob = json.loads(r.stdout)
        assert len(blob["classes"]) == 9
        first = blob["classes"][0]
        assert {"v", "delta", "morse_index", "action", "cz", "homology"} <= set(first)

    def test_deterministic_row_order(self):
        a = run_cli("spectrum", "--n", "2", "--degrees", "2,1", "--action-cap", "4")
        b = run_cli("spectrum", "--n", "2", "--degrees", "2,1", "--action-cap", "4")
        assert a.stdout == b.stdout


class TestPosetCommand:
    def test_expected_nodes_n2_sum4(self):
        r = run_cli("poset", "--n", "2", "--max-sum", "4")
        assert r.returncode == 0
        expected = ["1,1,1", "2,1", "3", "1,1,1,1", "2,1,1", "2,2", "3,1", "4"]
        for node in expected:
            assert f'"{node}" [label=' in r.stdout
        # exactly these nodes, no self-loops
        declared = [ln for ln in r.stdout.splitlines() if "[label=" in ln and "->" not in ln]
        assert len(declared) == len(expected)
        for line in r.stdout.splitlines():
            if "->" in line:
                left, right = line.split("->")
                assert left.strip().strip('"') != right.split("[")[0].strip().strip('"')

    def test_empty_graph_below_threshold(self):
        r = run_cli("poset", "--n", "3", "--max-sum", "2")
        assert r.returncode == 0
        assert "->" not in r.stdout
        assert "[label=" not in r.stdout

    def test_edges_annotated_with_verdicts(self):
        r = run_cli("poset", "--n", "2", "--max-sum", "4")
        edges = [ln for ln in r.stdout.splitlines() if "->" in ln]
        assert edges
        assert all('[label="YES"]' in e or '[label="NO"]' in e or '[label="UNKNOWN"]' in e for e in edges)


class TestPosetOrder:
    """``poset`` in process: the order it builds and the DOT it prints."""

    BASELINE = Path(__file__).resolve().parent.parent / "perfbench" / "baseline.json"

    def test_nodes_are_the_integer_partitions(self):
        for total in range(1, 16):
            got = [DegreeTuple(p) for p in cli._partitions(total, total)]
            assert got == sorted(canonical_tuples(total, total), reverse=True), total

    def test_closure_matches_decomposition(self, tmp_path):
        out = tmp_path / "poset.json"
        assert cli.main(["poset", "--n", "2", "--max-sum", "7", "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        nodes = [DegreeTuple(d) for d in record["nodes"]]
        covers = {(DegreeTuple(a), DegreeTuple(b)) for a, b in record["covers"]}
        assert len(nodes) == 41
        up = {a: [b for c, b in covers if c == a] for a in nodes}
        above = {}
        for a in nodes:
            seen, stack = set(), list(up[a])
            while stack:
                b = stack.pop()
                if b not in seen:
                    seen.add(b)
                    stack.extend(up[b])
            above[a] = seen
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
        assert len(pairs) == 1640
        for a, b in pairs:
            assert (b in above[a]) == (leqq_decomposition(a, b) is not None), (a, b)
        for a, b in covers:
            assert b in {mv.apply(a) for mv in _successor_moves(a)}, (a, b)
            assert not any(b in above[c] for c in up[a] if c != b), (a, b)

    @pytest.mark.parametrize("max_sum", ["5", "8"])
    def test_dot_matches_benchmark_digest(self, max_sum, capsys):
        expected = json.loads(self.BASELINE.read_text())["poset_dot_sha256"][max_sum]
        assert cli.main(["poset", "--n", "2", "--max-sum", max_sum]) == 0
        dot = capsys.readouterr().out
        assert hashlib.sha256(dot.encode()).hexdigest() == expected

    # sha256 of the DOT on stdout and of the --out record without
    # wall_time_ms (json.dumps, sorted keys, indent 2), both taken when every
    # cover was labelled by decide; Liouville and Weinstein print the same DOT
    DOT_SHA256 = {
        ("exact", 5): "88284b4e4dc9ba16ad689f2ab676f94c21a8065a4b10773c6bea7f55642d49d8",
        ("exact", 8): "8adaa2f801091c5cf443a0aa8ee308c110e1b91bc65d38d0e6be6c4c363c2bf1",
        ("exact", 9): "b8c0f6b9eb36dca72e572064c16489849e318d5e40f7482d156a97aeef2cb5f4",
        (SYMPLECTIC, 5): "e000d94621a6042ae2dba91ee1509faa6be9405746101267c098c33740dd3c8e",
        (SYMPLECTIC, 8): "18b2ecf463c25b2e42de19afaf77acb5a9853ec2fca9b6b6e864493e3c3e6ebb",
        (SYMPLECTIC, 9): "ffeda24c1092e300cd281956b4446a66fe9b323aaf5a99718b8111d348113a7f",
    }
    RECORD_SHA256 = {
        (LIOUVILLE, 5): "b0192f96a9891383c9cd1416a926507116894f74cbe5a96483970335c84491e1",
        (LIOUVILLE, 8): "2d1d05e4d5581d0f3fb96ccee657da267b329af8cb2e1bf5ea3d5a8193257846",
        (LIOUVILLE, 9): "7a6cef3a88d1ea0744c309ca3e602d9c38c2d84a03b1c8202d650f834ae31de9",
        (WEINSTEIN, 5): "0bf5ee09f13dfb541625b7df65835590c4c3c3abf5b7cf167b461115680877c8",
        (WEINSTEIN, 8): "0960f7f19464ba45a3b3769087867c61d86f4dd79f4c5a3b907684822d52a30a",
        (WEINSTEIN, 9): "c988917ce069691ee4f3808c6b45a4abbd6ecd3c3629637810e7efde2a741656",
        (SYMPLECTIC, 5): "a593a37ce0dbda1747f77d30e5a142f5847af903563d580ff0fb912e694087a5",
        (SYMPLECTIC, 8): "92dd37be0ea39075aca75d476a3dc225d884e82ac89e87a1dc014753457262a6",
        (SYMPLECTIC, 9): "ee44c3db5263a58db929419ed76cab2a076901a6fc14ecd1a8ad05a64d0ca3a7",
    }

    @staticmethod
    def poset(n, max_sum, mode, tmp_path, capsys):
        """``(dot, record)`` of one in-process run, ``wall_time_ms`` dropped."""
        out = tmp_path / "poset.json"
        argv = ["poset", "--n", str(n), "--max-sum", str(max_sum), "--mode", mode]
        assert cli.main(argv + ["--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert isinstance(record.pop("wall_time_ms"), int)
        return capsys.readouterr().out, record

    @pytest.mark.parametrize("max_sum", [5, 8, 9])
    @pytest.mark.parametrize("mode", MODES)
    def test_dot_and_record_keep_their_bytes(self, mode, max_sum, tmp_path, capsys):
        dot, record = self.poset(2, max_sum, mode, tmp_path, capsys)
        group = SYMPLECTIC if mode == SYMPLECTIC else "exact"
        assert hashlib.sha256(dot.encode()).hexdigest() == self.DOT_SHA256[group, max_sum]
        blob = json.dumps(record, sort_keys=True, indent=2)
        assert hashlib.sha256(blob.encode()).hexdigest() == self.RECORD_SHA256[mode, max_sum]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cover_labels_agree_with_decide(self, n, mode, tmp_path, capsys):
        # every cover is one move, and its label is decide's verdict; a move
        # never lowers the sum, so the covers at a smaller max-sum are those
        # at 8 whose target is in range, and checking 8 checks them all
        labelled = {}
        for max_sum in range(8, n, -1):
            dot, record = self.poset(n, max_sum, mode, tmp_path, capsys)
            edges = [ln for ln in dot.splitlines() if "->" in ln]
            assert len(edges) == len(record["covers"])
            labels = {
                (tuple(a), tuple(b)): edge.rsplit('label="', 1)[1].split('"')[0]
                for (a, b), edge in zip(record["covers"], edges)
            }
            if max_sum == 8:
                labelled = labels
            else:
                assert labels == {e: k for e, k in labelled.items() if sum(e[1]) <= max_sum}
        assert labelled
        for (a, b), kind in labelled.items():
            assert any(
                MoveSequence(a, b, (mv,)).is_valid() for mv in _successor_moves(a)
            ), (a, b)
            assert kind == decide(n, a, b, mode).kind, (a, b)

    @pytest.mark.parametrize("mode", [LIOUVILLE, WEINSTEIN])
    def test_exact_labels_run_no_decide(self, mode, monkeypatch, capsys):
        # the knapsack DFS behind decide grows exponentially in unit
        # entries: max-sum 10 did not finish in 90 s when it labelled covers
        def forbidden(*args, **kwargs):
            raise AssertionError("poset ran decide")

        monkeypatch.setattr(cli, "decide", forbidden)
        monkeypatch.setattr("hsembed.order.leqq_decomposition", forbidden)
        assert cli.main(["poset", "--n", "2", "--max-sum", "12", "--mode", mode]) == 0
        assert capsys.readouterr().out.count('[label="YES"];') == 893


class TestDeterminism:
    COMMANDS = [
        ("decide", "--n", "2", "--source", "2,2", "--target", "3,3"),
        ("leqq", "--source", "3,2,2", "--target", "7,2"),
        ("spectrum", "--n", "2", "--degrees", "2,1", "--action-cap", "3"),
        ("poset", "--n", "2", "--max-sum", "4"),
    ]

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
    def test_byte_stable_repeat_runs(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode

    def test_thread_flag_preserves_verdict(self):
        one = run_cli("decide", "--n", "2", "--source", "2,2", "--target", "3,3")
        four = run_cli(
            "decide", "--n", "2", "--source", "2,2", "--target", "3,3",
            "--threads", "4",
        )
        a, b = json.loads(one.stdout), json.loads(four.stdout)
        assert a["verdict"]["kind"] == b["verdict"]["kind"]
        assert one.returncode == four.returncode

    @pytest.mark.parametrize(
        "query, code, digest",
        [
            ("2 3,3 7,7", 1, "fe89bf73d9da526cca18447230409b2deeff8679423c74b02772f00c4162251b"),
            ("2 3,1 2,1,1,1,1", 1, "925d3f691e2186b4f169d13e25c5ef34959205a0c07f53fa5ed6861d7101c0c1"),
            ("2 3,1 2,2,1,1", 1, "2e37da44c264284640fde4c942a31a752f33e422215f8281f255d838cf399ae1"),
            ("2 3,1 2,2,2", 1, "5258a2b98dd87310377b2649949418eaaa20f96606930749afa8fd32da8ac416"),
            ("2 3,3 5,5", 1, "44217b7cc351c34b3120f4edb2c2bbc69554cb14406c6111e490260e99d8b60a"),
            ("3 4,3 9,9 2000", 2, "828352094e7e4ae9776e9e144a4db572de55e56b468b2f46a475ec86674ca68c"),
            ("3 4,4 9,8 2000", 2, "11895b73aaa860414c3f3c3dcc1a57dd466e90883a079cc022e612da70699f9e"),
        ],
    )
    def test_search_queries_print_pinned_bytes(self, query, code, digest, capsys):
        # the benchmark's five exhaustive searches (default budget) and two
        # capped ones ("n source target call_cap"): a change to the search
        # must leave the whole stdout of decide as it is
        n, source, target, *cap = query.split()
        argv = ["decide", "--n", n, "--source", source, "--target", target]
        argv += ["--call-cap", *cap] if cap else []
        assert cli.main(argv) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
