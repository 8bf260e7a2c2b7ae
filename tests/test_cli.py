import concurrent.futures
import contextlib
import csv
import io
import itertools
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from plumbtoric import MalformedDocument, TooManyGenerators, cli, docio, errors, moment_polygon, reeb, toric
from plumbtoric import PreconditionError, classify, det_intersection
from plumbtoric.cli import main
from plumbtoric.docio import polygon_from_doc, polygon_to_doc, render_svg
from test_docio import oracle_csv_line, oracle_row

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def survey_chains(lengths, values):
    """Every chain of a length and with entries in the closed ranges, sorted."""
    (n_lo, n_hi), (v_lo, v_hi) = lengths, values
    entries = range(v_lo, v_hi + 1)
    return sorted(c for n in range(n_lo, n_hi + 1) for c in itertools.product(entries, repeat=n))


def oracle_survey_rows(chains):
    # each chain classified on its own, as the survey once did; each row
    # the CSV line of its field texts
    rows = []
    for chain in chains:
        try:
            report = classify(chain, reduce=True)
        except PreconditionError:
            continue
        det = (-1) ** (len(chain) - len(report.chain)) * report.det  # one flip per blow-down
        rows.append(oracle_csv_line(oracle_row(chain, report.verdict, report.winding, report.lens, det)))
    return rows


def listed(chains):
    """The chains a survey can list: at least 2 long, with some entry >= 0."""
    return [c for c in chains if len(c) >= 2 and max(c) >= 0]


def walk_rows(chains):
    """The survey's CSV rows of listed chains, from one ``toric.survey_walk``."""
    return [docio.survey_row(*fields, "csv") for fields in toric.survey_walk(chains)]


WALK_ENTRIES = st.one_of(st.just(-1), st.integers(-3, 3))


@st.composite
def chain_lists(draw):
    """Chains that each follow the one before by a repeat, a prefix of it, a
    shorter or equal chain that agrees with it on all but its last entry, an
    extension by a run of -1 or by drawn entries, or a fresh draw."""
    chains = [tuple(draw(st.lists(WALK_ENTRIES, min_size=2, max_size=8)))]
    for _ in range(draw(st.integers(0, 12))):
        prev = chains[-1]
        how = draw(st.sampled_from(["repeat", "prefix", "last", "run", "extend", "fresh"]))
        if how == "repeat":
            s = prev
        elif how == "prefix":
            s = prev[: draw(st.integers(1, len(prev)))]
        elif how == "last":
            s = prev[: draw(st.integers(1, len(prev))) - 1] + (draw(WALK_ENTRIES),)
        elif how == "run":
            s = prev + (-1,) * draw(st.integers(1, 4))
        elif how == "extend":
            s = prev + tuple(draw(st.lists(WALK_ENTRIES, min_size=1, max_size=4)))
        else:
            s = tuple(draw(st.lists(WALK_ENTRIES, min_size=2, max_size=8)))
        chains.append(s)
    return chains


class TestClassifyCommand:
    def test_tight_example(self, capsys):
        code, out, _ = run(capsys, "classify", "--plumbing", "-2,1,0,-2")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "tight"
        assert doc["lens"] == {"k": 1, "l": 0}
        assert doc["torsion"]["at_simp"] == "infinity"

    def test_minus_one_without_reduce_exits_2(self, capsys):
        code, out, err = run(capsys, "classify", "--plumbing", "2,-1,2")
        assert code == 2
        record = json.loads(err)
        assert record["error"]["type"] == "MinusOnePresent"

    def test_reduce_flag(self, capsys):
        code, out, _ = run(capsys, "classify", "--plumbing", "2,-1,2", "--reduce")
        assert code == 0
        doc = json.loads(out)
        assert doc["chain"] == [3, 3] and doc["verdict"] == "overtwisted"

    def test_malformed_chain_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "--plumbing", "2,x")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "MalformedDocument"

    def test_huge_entries_exit_0(self, capsys):
        # past 10^308 the display-only swept angle is rescaled before atan2
        docs = []
        for digits in (100, 160, 1000):
            entry = "3" * digits
            code, out, _ = run(capsys, "classify", "--plumbing", "%s,%s" % (entry, entry))
            assert code == 0
            docs.append(json.loads(out)["winding"])
        assert docs[0] == docs[1] == docs[2]

    def test_unprintable_output_exits_2(self, capsys):
        # the determinant N^2 - 1 of N,N has about 4,400 digits
        entry = "3" * 2200
        code, out, err = run(capsys, "classify", "--plumbing", "%s,%s" % (entry, entry))
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"]["type"] == "OutputTooLarge"


class TestConstructCommand:
    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--plumbing", "-2,1,0,-2", "--heights", "-1,-3,-3,-1"
        )
        assert code == 0
        parsed = polygon_from_doc(json.loads(out))
        assert parsed == moment_polygon((-2, 1, 0, -2), 2, (-1, -3, -3, -1))

    def test_svg_structure(self, capsys):
        code, out, _ = run(capsys, "construct", "--plumbing", "-2,1,0,-2", "--format", "svg")
        assert code == 0
        assert out.count('class="edge"') == 4
        assert out.count('class="edge-label"') == 4
        assert out.count('class="ray') == 2
        assert out.count('class="origin"') == 1
        assert out.count('class="boundary"') == 1

    def test_small_svg(self, capsys):
        code, out, _ = run(capsys, "construct", "--plumbing", "2,3", "--format", "svg")
        assert code == 0
        assert out.count('class="edge"') == 2

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "construct", "--plumbing", "2,3", "--format", "svg")
        _, second, _ = run(capsys, "construct", "--plumbing", "2,3", "--format", "svg")
        assert first == second

    @pytest.mark.parametrize("command", ["classify", "construct"])
    def test_long_blow_down_cascade_is_quick(self, capsys, command):
        chain = ",".join(["3"] + ["-2"] * 40000 + ["-1", "5"])
        start = time.perf_counter()
        code, out, _ = run(capsys, command, "--plumbing", chain, "--reduce")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        if command == "classify":
            assert json.loads(out)["chain"] == [4, 40006]
        else:
            assert [e["self_intersection"] for e in json.loads(out)["edges"]] == [4, 40006]

    @pytest.mark.parametrize("format", ["json", "svg"])
    def test_unprintable_output_exits_2(self, capsys, format):
        # vertices past 4,300 digits, and past the float range in the picture
        entry = "3" * 2200
        chain = ",".join([entry] * 3)
        code, out, err = run(capsys, "construct", "--plumbing", chain, "--format", format)
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"]["type"] == "OutputTooLarge"

    def test_empty_heights_exit_2(self, capsys):
        # an empty --heights is a bad rational, not the default heights
        code, out, err = run(capsys, "construct", "--plumbing", "2,3", "--heights", "")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "MalformedDocument"

    def test_default_pivot_runs_the_chain_gate_once(self, capsys, monkeypatch):
        real, calls = toric._valid_pivots, []
        monkeypatch.setattr(toric, "_valid_pivots", lambda s: calls.append(s) or real(s))
        code, _, _ = run(capsys, "construct", "--plumbing", "-2,1,0,-2")
        assert code == 0
        assert calls == [(-2, 1, 0, -2)]

    def test_heights_are_read_before_the_chain_gate(self, capsys):
        # a bad chain and a bad --heights: the heights are refused first,
        # with or without --pivot
        for extra in ((), ("--pivot", "1")):
            code, out, err = run(
                capsys, "construct", "--plumbing", "2,-1,2", "--heights", "x", *extra
            )
            assert code == 2 and out == ""
            assert json.loads(err)["error"]["type"] == "MalformedDocument"

    def test_heights_are_read_before_the_blow_down(self, capsys):
        # -1 blows down to nothing (EmptyPlumbing), but the bad --heights
        # is refused first
        code, out, err = run(capsys, "construct", "--plumbing", "-1", "--reduce", "--heights", "x")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "MalformedDocument"

    def test_default_pivot_follows_chain_gate(self, capsys):
        # the -1 error comes before the pivot search, with or without --pivot
        for extra in ((), ("--pivot", "1")):
            code, _, err = run(capsys, "construct", "--plumbing", "-1,-2", *extra)
            assert code == 2
            assert json.loads(err)["error"]["type"] == "MinusOnePresent"


class TestSurveyCommand:
    def test_contains_expected_row(self, capsys):
        code, out, _ = run(capsys, "survey", "--n", "4", "--range", "-2..1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# plumbtoric-survey v1"
        assert lines[1] == "s,verdict,k,l,vs_pi,vs_2pi,det,det_check"
        row = next(line for line in lines if line.startswith('"-2,1,0,-1"'))
        assert ",overtwisted," in row

    def test_rows_sorted_and_deterministic(self, capsys):
        _, serial, _ = run(capsys, "survey", "--n", "2..3", "--range", "-2..1")
        _, parallel, _ = run(
            capsys, "survey", "--n", "2..3", "--range", "-2..1", "--jobs", "2"
        )
        assert serial == parallel
        keys = [
            tuple(int(v) for v in line.split('"')[1].split(","))
            for line in serial.splitlines()[2:]
        ]
        assert keys == sorted(keys)

    def test_reversed_length_range_exits_2(self, capsys):
        # refused like a reversed value range, not answered with an empty table
        for n, values in (("3..2", "0..1"), ("2", "1..0")):
            code, out, err = run(capsys, "survey", "--n", n, "--range", values)
            assert code == 2 and out == ""
            assert json.loads(err)["error"]["type"] == "MalformedDocument"

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_2(self, capsys, jobs):
        code, out, err = run(capsys, "survey", "--n", "2", "--range", "0..1", "--jobs", jobs)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert (error["type"], error["message"]) == (
            "MalformedDocument",
            "--jobs must be at least 1",
        )

    def test_cap_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("PLUMBTORIC_MAX_SURVEY", "10")
        code, _, err = run(capsys, "survey", "--n", "4", "--range", "-3..3")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "SurveyTooLarge"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unprintable_row_exits_2(self, capsys, jobs):
        # the lens invariant and determinant of N,N pass 4,300 digits
        entry = "3" * 2200
        code, out, err = run(
            capsys, "survey", "--n", "2..3", "--range", "%s..%s" % (entry, entry), "--jobs", jobs
        )
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"]["type"] == "OutputTooLarge"

    @given(st.lists(st.one_of(st.just(-1), st.integers(-4, 4)), min_size=2, max_size=12))
    @example([2, -2, -1, -2, 3])  # a cascade: two blow-downs from one -1
    @example([3, -2, -2, -1, 0, 2])  # three blow-downs flip the sign
    @example([0, -1, 0])  # one blow-down to (1, 1), of det 0: never printed -0
    @settings(max_examples=300)
    def test_det_column_is_the_enumerated_chains(self, entries):
        # the re-keyed row negates the reduced chain's det per blow-down
        chain = tuple(entries)
        for row in walk_rows(listed([chain])):
            (fields,) = csv.reader([row])
            assert fields[0] == ",".join(map(str, chain))
            assert fields[6] == str(det_intersection(chain))

    @given(
        st.lists(
            st.lists(st.one_of(st.just(-1), st.integers(-4, 4)), min_size=2, max_size=12).map(tuple),
            min_size=1,
            max_size=20,
        )
    )
    @example([(2, -1, -1, -1, 0)])  # two (-1, -1) junctions, then a pivot's
    @example([(0, -1), (0, -1, -1), (-1, -1, 0)])  # each blows down to one vertex
    @settings(max_examples=300, deadline=None)
    def test_walk_with_minus_one_gives_the_oracles_rows(self, chains):
        # -1 entries walked in place, in any order and in tuple order: each
        # row is survey_row of classify(chain, reduce=True)
        chains = listed(chains)
        assert walk_rows(chains) == oracle_survey_rows(chains)
        chains.sort()
        assert walk_rows(chains) == oracle_survey_rows(chains)

    @given(
        st.tuples(st.integers(2, 5), st.integers(2, 5)).map(sorted),
        st.tuples(st.integers(-4, 3), st.integers(-4, 3)).map(sorted),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_are_each_chains_own(self, lengths, values):
        # some chains holding -1 blow down to nothing and are skipped
        chains = listed(survey_chains(lengths, values))
        assume(len(chains) <= 2500)
        assert walk_rows(chains) == oracle_survey_rows(chains)

    def test_rows_in_the_pool_are_each_chains_own(self, capsys, monkeypatch):
        # the real process pool, each worker walking its own subtrees
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        expected = docio.survey_to_csv(oracle_survey_rows(listed(survey_chains((2, 4), (-3, 1)))))
        argv = ["survey", "--n", "2..4", "--range", "-3..1", "--jobs", "2"]
        assert run(capsys, *argv) == (0, expected, "")

    @given(
        st.lists(st.lists(st.integers(-4, 4), max_size=30), min_size=1, max_size=3).flatmap(
            lambda stems: st.lists(
                st.tuples(st.sampled_from(stems), st.lists(st.integers(-4, 4), max_size=10)),
                max_size=12,
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_walk_keeps_no_state_of_other_prefixes(self, pairs):
        # chains that share long stems, with -1, repeats and in any order:
        # the walk resumes each from its common prefix with the chain before
        chains = listed([tuple(stem + tail) for stem, tail in pairs])
        assert walk_rows(chains) == oracle_survey_rows(chains)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fault_in_the_walk_step_raises(self, monkeypatch, jobs):
        real = toric._step

        def one_wrap_more(w0x, w0y, u, pu, v):
            p, wrap = real(w0x, w0y, u, pu, v)
            return p, wrap + 1

        monkeypatch.setattr(toric, "_step", one_wrap_more)
        # workers in this process, so they see the fault
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", concurrent.futures.ThreadPoolExecutor)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        argv = ["survey", "--n", "2..4", "--range=-3..1", "--jobs", str(jobs)]
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(errors.InternalInvariantError, match=r"^pivot \d+ sweep count"):
            args.func(args)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_one_walk_step_per_prefix_tree_node(self, capsys, monkeypatch, jobs):
        # each chain is walked from the prefix it shares with the chain
        # before it, so each node of the prefix tree of the enumerated chains
        # past depth 1 takes one head step and one junction step, and a
        # (-1, -1) junction none; under --jobs 2 each worker walks subtrees
        # of the 25 prefixes of length 2
        calls, real = [], toric._step

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(toric, "_step", counted)
        # workers in this process, so their steps are counted here
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", concurrent.futures.ThreadPoolExecutor)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        argv = ["survey", "--n", "2..4", "--range", "-3..1", "--jobs", jobs]
        assert run(capsys, *argv)[0] == 0
        chains = [c for c in survey_chains((2, 4), (-3, 1)) if max(c) >= 0]
        nodes = {c[:k] for c in chains for k in range(2, len(c) + 1)}
        assert len(calls) == sum(1 + (node[-2:] != (-1, -1)) for node in nodes)
        assert len(nodes) < sum(len(c) - 1 for c in chains)

    @given(chain_lists())
    @example([(0, 1), (0, 1), (0,), (0, 1, -1, -1, -1, 2), (0, 1, -1, -1, -1), (0, 1, -1, 5), (0, 1)])
    @settings(max_examples=300, deadline=None)
    def test_one_walk_step_per_entry_past_the_shared_prefix(self, chains):
        # any chain list, not only the survey's preorder: each entry past
        # the exact common prefix with the chain before takes one head step
        # and one junction step, a (-1, -1) junction none; the first entry
        # of a chain walked afresh takes none
        chains = listed(chains)
        calls, real = [], toric._step

        def counted(*args):
            calls.append(args)
            return real(*args)

        with mock.patch.object(toric, "_step", counted):
            walked = list(toric.survey_walk(chains))
        expected, prev = 0, ()
        for s in chains:
            m = next((j for j, (x, y) in enumerate(zip(s, prev)) if x != y), min(len(s), len(prev)))
            expected += sum(1 + (s[j - 2 : j] != (-1, -1)) for j in range(max(m, 1) + 1, len(s) + 1))
            prev = s
        assert len(calls) == expected
        # and resumed walks give what fresh ones give
        assert walked == [f for s in chains for f in toric.survey_walk([s])]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_fault_in_a_subtree_walk_exits_1(self, capsys, monkeypatch, jobs):
        real = toric._step

        def one_wrap_more(w0x, w0y, u, pu, v):
            p, wrap = real(w0x, w0y, u, pu, v)
            return p, wrap + 1

        monkeypatch.setattr(toric, "_step", one_wrap_more)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", concurrent.futures.ThreadPoolExecutor)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        code, out, err = run(capsys, "survey", "--n", "2..4", "--range", "-3..1", "--jobs", jobs)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        # the first chain, in the first subtree either way
        assert error == {
            "type": "InternalInvariantError",
            "message": "pivot 4 sweep count 6 != b+(Q) - 1 = 0 for (-3, -3, -3, 0)",
        }

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unprintable_row_in_a_subtree_exits_2(self, capsys, monkeypatch, jobs):
        # one chain's determinant past Python's int-to-str digit limit: its
        # row raises ValueError inside survey_row, in a worker under --jobs 2
        real = toric.survey_walk

        def one_huge_det(chains):
            for chain, verdict, winding, lens, det in real(chains):
                yield chain, verdict, winding, lens, 10**5000 if chain == (-1, 0, 1) else det

        monkeypatch.setattr(toric, "survey_walk", one_huge_det)
        # workers in this process, so they see the fault
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", concurrent.futures.ThreadPoolExecutor)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        code, out, err = run(capsys, "survey", "--n", "2..4", "--range", "-3..1", "--jobs", jobs)
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "OutputTooLarge"
        assert error["message"].startswith("output too large to print: ")

    def test_unprintable_rows_in_the_pool_exit_2(self, capsys, monkeypatch):
        # two values of 2,200 digits: four subtrees for two worker
        # processes, and every row's determinant past the digit limit; the
        # error pickles back to the parent, with no BrokenProcessPool
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        lo = int("3" * 2200)
        code, out, err = run(capsys, "survey", "--n", "2", "--range", "%d..%d" % (lo, lo + 1), "--jobs", "2")
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"]["type"] == "OutputTooLarge"

    def test_jobs_agree_with_fewer_subtrees_than_four_per_worker(self, capsys, monkeypatch):
        # two values and --n 2..5: the prefixes stop at length 2, four of
        # them for two workers; the real process pool
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        argv = ["survey", "--n", "2..5", "--range", "0..1", "--exclude-minus-one"]
        code, serial, _ = run(capsys, *argv, "--jobs", "1")
        assert code == 0 and serial.count("\n") == 2 + 4 + 8 + 16 + 32
        assert run(capsys, *argv, "--jobs", "2") == (0, serial, "")

    @pytest.mark.parametrize("n", ["2..20000", "2..300000"])
    def test_huge_survey_refused_quickly(self, capsys, monkeypatch, n):
        monkeypatch.delenv("PLUMBTORIC_MAX_SURVEY", raising=False)
        start = time.perf_counter()
        code, _, err = run(capsys, "survey", "--n", n, "--range", "0..1")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        error = json.loads(err)["error"]
        assert error["type"] == "SurveyTooLarge"
        assert error["message"] == (
            "survey has more than 1000000 chain entries (PLUMBTORIC_MAX_SURVEY)"
        )

    def test_long_one_value_chains_refused_quickly(self, capsys, monkeypatch):
        # only 299,999 chains, but about 4.5e10 entries in total
        monkeypatch.delenv("PLUMBTORIC_MAX_SURVEY", raising=False)
        start = time.perf_counter()
        code, _, err = run(capsys, "survey", "--n", "2..300000", "--range", "0..0")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert json.loads(err)["error"]["type"] == "SurveyTooLarge"

    def test_jobs_clamped_to_cpu_count(self, capsys, monkeypatch):
        seen = []

        class FakePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks, chunksize=1):
                return map(fn, chunks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        _, serial, _ = run(capsys, "survey", "--n", "2", "--range", "-2..1")
        code, out, _ = run(capsys, "survey", "--n", "2", "--range", "-2..1", "--jobs", "500")
        assert code == 0 and out == serial
        assert seen == [3]

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5", ""])
    def test_bad_cap_exits_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PLUMBTORIC_MAX_SURVEY", value)
        code, _, err = run(capsys, "survey", "--n", "2", "--range", "0..1")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "MalformedDocument"

    def test_exclude_minus_one(self, capsys):
        code, out, _ = run(
            capsys, "survey", "--n", "2", "--range", "-2..1", "--exclude-minus-one"
        )
        assert code == 0
        for line in out.splitlines()[2:]:
            chain = [int(v) for v in line.split('"')[1].split(",")]
            assert -1 not in chain


DIP = '{"vertices": [["-2", "0"], ["0", "-2"], ["2", "0"]], "start_ray": [-1, 0], "end_ray": [1, 0]}'


def write_dip(tmp_path):
    path = tmp_path / "itinerary.json"
    path.write_text(DIP)
    return str(path)


class TestReebOrbitsCommand:
    def test_listing(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "reeb-orbits", "--itinerary", write_dip(tmp_path), "--action-bound", "5"
        )
        assert code == 0
        listing = json.loads(out)
        slopes = {tuple(f["slope"]) for f in listing["families"]}
        assert slopes == {(0, -1), (1, -2), (-1, -2)}
        assert len(listing["orbits"]) == 6  # one elliptic + one hyperbolic per family
        assert [] in listing["generators"]  # the empty current

    def test_exact_bound_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "reeb-orbits", "--itinerary", write_dip(tmp_path), "--action-bound", "2"
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ActionBoundHit"

    def test_generator_cap(self, capsys, monkeypatch, tmp_path):
        path = write_dip(tmp_path)
        monkeypatch.setenv("PLUMBTORIC_MAX_GENERATORS", "2000")
        # 315,247 generators lie below 91/3; the search stops at the cap
        code, _, err = run(capsys, "reeb-orbits", "--itinerary", path, "--action-bound", "91/3")
        assert code == 2
        error = json.loads(err)["error"]
        assert error["type"] == "TooManyGenerators"
        assert "PLUMBTORIC_MAX_GENERATORS" in error["message"]
        monkeypatch.setenv("PLUMBTORIC_MAX_GENERATORS", "175")  # exactly the count
        code, out, _ = run(capsys, "reeb-orbits", "--itinerary", path, "--action-bound", "31/3")
        assert code == 0
        assert len(json.loads(out)["generators"]) == 175

    def test_refused_before_the_search(self, capsys, monkeypatch, tmp_path):
        # 7 families lie below 7 and 27 generators in all; the 14 orbits and
        # the empty current are generators on their own, so every cap below
        # 15 is refused before the split and the search, as the search would
        path = write_dip(tmp_path)
        itinerary = docio.itinerary_from_doc(json.loads(DIP))
        families = reeb.enumerate_orbits(itinerary, 7)
        orbits = [o for fc in families for o in reeb.perturb_split(fc.family)]
        search = reeb.enumerate_generators

        def refusal(cap):
            monkeypatch.setenv("PLUMBTORIC_MAX_GENERATORS", str(cap))
            code, out, err = run(capsys, "reeb-orbits", "--itinerary", path, "--action-bound", "7")
            assert code == 2 and out == ""
            with pytest.raises(TooManyGenerators) as exc:
                search(orbits, 7, max_generators=cap)
            message = "%s (PLUMBTORIC_MAX_GENERATORS)" % exc.value
            assert json.loads(err)["error"] == {"type": "TooManyGenerators", "message": message}

        for cap in range(15, 27):
            refusal(cap)
        monkeypatch.setenv("PLUMBTORIC_MAX_GENERATORS", "27")  # exactly the count
        code, out, _ = run(capsys, "reeb-orbits", "--itinerary", path, "--action-bound", "7")
        assert code == 0 and len(json.loads(out)["generators"]) == 27

        def unreachable(*args, **kwargs):
            raise AssertionError("ran past the early refusal")

        monkeypatch.setattr(reeb, "perturb_split", unreachable)
        monkeypatch.setattr(reeb, "enumerate_generators", unreachable)
        for cap in range(15):
            refusal(cap)

    # a vertex at x = 1e400 makes a corner cone of cross about 1e400; a
    # one-corner cone of cross 20,002 once took 17 s to find no family
    NARROW = {
        "vertices": [["-1/20002", "-1/2"], ["0", "-1"], ["1/20002", "-1/2"]],
        "start_ray": [-1, -10001],
        "end_ray": [1, -10001],
    }

    @pytest.mark.parametrize("doc, bound", [(None, "7"), (NARROW, "1/2")], ids=["far", "narrow"])
    def test_long_descent_refused_quickly(self, capsys, monkeypatch, tmp_path, doc, bound):
        monkeypatch.delenv("PLUMBTORIC_MAX_GENERATORS", raising=False)
        path = GOLDEN / "itinerary_far_vertex.json"
        if doc is not None:
            path = tmp_path / "narrow.json"
            path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "reeb-orbits", "--itinerary", str(path), "--action-bound", bound)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "type": "TooManyGenerators",
            "message": "the orbit descent splits more than 100000 cones below action %s "
            "(PLUMBTORIC_MAX_GENERATORS)" % bound,
        }

    def test_split_budget_is_the_generator_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PLUMBTORIC_MAX_GENERATORS", "2000")
        path = str(GOLDEN / "itinerary_far_vertex.json")
        code, _, err = run(capsys, "reeb-orbits", "--itinerary", path, "--action-bound", "7")
        assert code == 2
        assert "more than 2000 cones" in json.loads(err)["error"]["message"]

    def test_wide_cone_refused_under_its_split_count(self, capsys, monkeypatch, tmp_path):
        # a corner cone of cross about 20: 19 families, all of action 1, so
        # 39 generators below 3/2, but the descent splits 47 cones; a cap
        # of 39..46 refuses what its generators would fit
        doc = {
            "vertices": [["-1/20", "-1/2"], ["0", "-1"], ["1/20", "-1/2"]],
            "start_ray": [-1, -10],
            "end_ray": [1, -10],
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        argv = ["reeb-orbits", "--itinerary", str(path), "--action-bound", "3/2"]
        monkeypatch.setenv("PLUMBTORIC_MAX_GENERATORS", "47")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(json.loads(out)["generators"]) == 39
        monkeypatch.setenv("PLUMBTORIC_MAX_GENERATORS", "46")
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "type": "TooManyGenerators",
            "message": "the orbit descent splits more than 46 cones below action 3/2 "
            "(PLUMBTORIC_MAX_GENERATORS)",
        }

    @pytest.mark.parametrize(
        "bound, error",
        [("1e7", "TooManyGenerators"), ("1e4000", "TooManyGenerators"), ("1e5", "ActionBoundHit")],
    )
    def test_huge_bound_refused_quickly(self, capsys, monkeypatch, bound, error):
        # the orbit descent stops at the generator cap; below 1e5 it meets
        # an exact hit before it has found enough families
        monkeypatch.delenv("PLUMBTORIC_MAX_GENERATORS", raising=False)
        itinerary = str(GOLDEN / "itinerary.json")
        start = time.perf_counter()
        code, out, err = run(capsys, "reeb-orbits", "--itinerary", itinerary, "--action-bound", bound)
        assert time.perf_counter() - start < 3.0
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        record = json.loads(line)["error"]
        assert record["type"] == error
        if bound == "1e7":
            assert record["message"] == (
                "more than 100000 ECH generators below action 10000000 (PLUMBTORIC_MAX_GENERATORS)"
            )

    @pytest.mark.parametrize(
        "change",
        [
            {"start_ray": ["a", 0]},
            {"start_ray": [-1, 0, 5]},
            {"end_ray": [1]},
            {"end_ray": "10"},
            {"vertices": [["-2", "0", "1"], ["0", "-2"], ["2", "0"]]},
            {"vertices": [["-2", "0"], ["0"], ["2", "0"]]},
            {"start_ray": [-1e999, 0]},
            {"start_ray": [-1.9, 0]},
            {"start_ray": [True, 0]},
        ],
    )
    def test_bad_pairs_exit_2(self, capsys, tmp_path, change):
        path = tmp_path / "itinerary.json"
        path.write_text(json.dumps({**json.loads(DIP), **change}))
        code, out, err = run(capsys, "reeb-orbits", "--itinerary", str(path), "--action-bound", "5")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "MalformedDocument"

    @pytest.mark.parametrize("value", ["abc", "-5", "1e5"])
    def test_bad_generator_cap_exits_2(self, capsys, monkeypatch, tmp_path, value):
        monkeypatch.setenv("PLUMBTORIC_MAX_GENERATORS", value)
        code, _, err = run(
            capsys, "reeb-orbits", "--itinerary", write_dip(tmp_path), "--action-bound", "5"
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "MalformedDocument"

    def test_malformed_document_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(
            capsys, "reeb-orbits", "--itinerary", str(path), "--action-bound", "5"
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "MalformedDocument"

    @pytest.mark.parametrize(
        "text", ["1" * 5000, "[" * 100000, "\udcff"], ids=["huge-int", "deep", "not-utf8"]
    )
    def test_unreadable_documents_exit_2(self, capsys, tmp_path, text):
        # an int past Python's digit limit, nesting past the recursion limit,
        # and bytes that are not UTF-8
        path = tmp_path / "bad.json"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        code, out, err = run(capsys, "reeb-orbits", "--itinerary", str(path), "--action-bound", "5")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "MalformedDocument"

    def test_unprintable_bound_exits_2(self, capsys):
        # 10^5000 has more digits than Python prints; refused before any work
        itinerary = str(GOLDEN / "itinerary.json")
        code, out, err = run(
            capsys, "reeb-orbits", "--itinerary", itinerary, "--action-bound", "1e-5000"
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "MalformedDocument"

    @pytest.mark.parametrize("bound", ["1e50000000", "-1e-50000000", "2.5E+99999999999"])
    def test_huge_exponent_bound_refused_quickly(self, capsys, bound):
        itinerary = str(GOLDEN / "itinerary.json")
        start = time.perf_counter()
        code, out, err = run(capsys, "reeb-orbits", "--itinerary", itinerary, "--action-bound", bound)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "MalformedDocument"

    def test_huge_exponent_vertex_refused_quickly(self, capsys, tmp_path):
        path = tmp_path / "itinerary.json"
        path.write_text(DIP.replace('["-2", "0"]', '["-2e50000000", "0"]'))
        start = time.perf_counter()
        code, out, err = run(capsys, "reeb-orbits", "--itinerary", str(path), "--action-bound", "5")
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "MalformedDocument"


class TestIndexCommand:
    def test_plane_document(self, capsys, tmp_path):
        doc = {
            "c_tau": 1,
            "q_tau": 0,
            "alpha": [{"kind": "positive_hyperbolic", "base_action": "1", "multiplicity": 1}],
            "beta": [],
            "chi": 1,
            "cz_plus": [0],
            "cz_minus": [],
        }
        path = tmp_path / "index.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "index", "--input", str(path))
        assert code == 0
        result = json.loads(out)
        assert result["ech_index"] == 1
        assert result["j_plus"] == 0
        assert result["fredholm_index"] == 1
        assert result["parity_consistent"] is True

    @pytest.mark.parametrize(
        "change",
        [
            {"chi": "x"},
            {"cz_plus": 5},
            {"cz_minus": [None]},
            {"c_tau": 1e999},
            {"alpha": [{"kind": "elliptic", "multiplicity": -1e999}]},
            {"c_tau": 1.5},
            {"cz_plus": "12"},
        ],
    )
    def test_bad_fields_exit_2(self, capsys, tmp_path, change):
        doc = {"c_tau": 1, "q_tau": 0, "chi": 1, "cz_plus": [0], **change}
        path = tmp_path / "index.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "index", "--input", str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "MalformedDocument"

    @pytest.mark.parametrize(
        "entries",
        [
            [{"kind": "elliptic", "multiplicity": 0}],
            [{"kind": "elliptic"}, {"kind": "elliptic", "multiplicity": 2}],
        ],
    )
    def test_malformed_current_is_a_malformed_document(self, entries):
        with pytest.raises(MalformedDocument, match="^bad Reeb-current document: "):
            docio.current_from_doc(entries)


class TestOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--plumbing", "2,3"],
            ["construct", "--plumbing", "2,3", "--format", "svg"],
            ["survey", "--n", "2", "--range", "0..1"],
            ["reeb-orbits", "--itinerary", str(GOLDEN / "itinerary.json"), "--action-bound", "5"],
            ["index", "--input", str(GOLDEN / "index.json")],
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_directory_exits_2(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--output", str(tmp_path / "missing" / "out"))
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"]["type"] == "MalformedDocument"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify"],
            ["survey", "--n", "2", "--range", "0..1", "--jobs", "x"],
            ["construct", "--plumbing", "2,3", "--format", "xml"],
            ["no-such-command"],
        ],
    )
    def test_usage_error_is_a_json_record(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "MalformedDocument"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--help"])
        assert exc.value.code == 0
        assert "--plumbing" in capsys.readouterr().out


class TestSharedParser:
    """``main`` calls in one process share one parser; no call's flags,
    output file or usage error may reach the next call."""

    SURVEY = ["survey", "--n", "2..3", "--range", "-3..1"]
    REEB = ["reeb-orbits", "--itinerary", str(GOLDEN / "itinerary.json"), "--action-bound", "37/3"]

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_fresh_parser_each_call_gives_the_same_bytes(self, capsys, tmp_path):
        sequence = [
            self.SURVEY + ["--format", "json", "--output", str(tmp_path / "survey.json")],
            self.SURVEY,
            ["reeb-orbits", "--itinerary", str(GOLDEN / "itinerary.json")],  # no --action-bound
            self.REEB,
            ["classify", "--plumbing", "2,x", "--reduce"],
            ["classify", "--plumbing", "2,-1,2"],  # --reduce not carried over
        ]
        fresh = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        shared = [run(capsys, *argv) for argv in sequence]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 2, 0, 2, 2]
        assert json.loads(shared[5][2])["error"]["type"] == "MinusOnePresent"

    def test_json_to_file_then_csv_to_stdout(self, capsys, tmp_path):
        path = tmp_path / "survey.json"
        code, out, _ = run(capsys, *self.SURVEY, "--format", "json", "--output", str(path))
        assert code == 0 and out == ""
        assert path.read_text() == (GOLDEN / "survey_json_jobs2.out").read_text()
        path.unlink()
        code, out, _ = run(capsys, *self.SURVEY)
        assert code == 0 and out == (GOLDEN / "survey_csv.out").read_text()
        assert not path.exists()

    def test_usage_error_then_reeb_orbits(self, capsys):
        code, out, err = run(capsys, "reeb-orbits", "--itinerary", str(GOLDEN / "itinerary.json"))
        assert code == 2 and out == ""
        assert "--action-bound" in json.loads(err)["error"]["message"]
        code, out, err = run(capsys, *self.REEB)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "reeb_orbits_37_3.out").read_text()


decimal_text = st.builds(
    "{}{}{}{}e{}{}".format,
    st.sampled_from(["", "-", "+", " "]),
    st.text("0123456789", max_size=6),
    st.sampled_from(["", "."]),
    st.text("0123456789", max_size=6),
    st.sampled_from(["", "-", "+"]),
    st.integers(0, 40).map(str),
)


class TestParseFraction:
    """Decimal exponents are read off the text before Fraction expands them;
    every value Fraction reads and Python can print is still accepted."""

    @settings(max_examples=300)
    @given(decimal_text)
    def test_same_value_as_fraction(self, text):
        try:
            expected = Fraction(text)
        except ValueError:
            with pytest.raises(MalformedDocument):
                docio.parse_fraction(text)
            return
        assert docio.parse_fraction(text) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "1e4299",  # 4,300 digits
            "-1e-4299",
            "0." + "9" * 4000 + "e4000",  # an integer of 4,000 digits
            "1" + "0" * 4299 + "e-4299",  # 1
            "12e-4300",  # 3/25 * 10^-4298
        ],
    )
    def test_printable_values_near_the_limit_accepted(self, text):
        assert docio.parse_fraction(text) == Fraction(text)

    @pytest.mark.parametrize("text", ["1e4300", "-1e-4300", "1e50000000", "7.5e-50000000"])
    def test_unprintable_values_refused(self, text):
        start = time.perf_counter()
        with pytest.raises(MalformedDocument, match="bad rational"):
            docio.parse_fraction(text)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("text", ["0e50000000", "-0.000E-99999999999", ".0e12345678901234"])
    def test_zero_mantissa_reads_as_zero(self, text):
        start = time.perf_counter()
        assert docio.parse_fraction(text) == 0
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "text, expected",
        [("1_0", 10), ("1/2_0", Fraction(1, 20)), ("1e1_0", 10**10), (" 1/2 ", Fraction(1, 2))],
    )
    def test_underscores_between_digits_and_outer_whitespace(self, text, expected):
        assert docio.parse_fraction(text) == expected

    @pytest.mark.parametrize("text", ["1 / 2", "1__0", "_1", "1_", "1_.5"])
    def test_inner_whitespace_and_stray_underscores_refused(self, text):
        with pytest.raises(MalformedDocument, match="^bad rational %r: " % text):
            docio.parse_fraction(text)


class TestPolygonRoundTrip:
    @pytest.mark.parametrize("part", ["vertices", "rays"])
    def test_three_components_refused(self, part):
        doc = json.loads(json.dumps(polygon_to_doc(moment_polygon((3, -2), 1))))
        doc[part][0].append(5)
        with pytest.raises(MalformedDocument, match="pair"):
            polygon_from_doc(doc)

    @pytest.mark.parametrize("keep, extra", [(2, [[7, 7]]), (1, [])])
    def test_third_or_missing_ray_refused(self, keep, extra):
        # a third ray was once dropped without a word
        doc = json.loads(json.dumps(polygon_to_doc(moment_polygon((-2, 1, 0, -2), 2))))
        doc["rays"] = doc["rays"][:keep] + extra
        with pytest.raises(MalformedDocument, match="pair"):
            polygon_from_doc(doc)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_edge_count_not_vertex_count_minus_one(self, extra):
        doc = json.loads(json.dumps(polygon_to_doc(moment_polygon((-2, 1, 0, -2), 2))))
        doc["edges"] = doc["edges"][:extra] if extra < 0 else doc["edges"] + doc["edges"][-1:]
        with pytest.raises(
            MalformedDocument,
            match="^bad moment-polygon document: %d edges for 5 vertices$" % (4 + extra),
        ):
            polygon_from_doc(doc)

    @pytest.mark.parametrize("start, end", [(9, 2), (0, 3), (1, 1), (2, 1)])
    def test_edge_not_joining_its_own_vertices(self, start, end):
        # edge 1 must join vertices 1 and 2; (9, 2) once ended in an IndexError
        # from render_svg, and (0, 3) drew the wrong segment
        doc = json.loads(json.dumps(polygon_to_doc(moment_polygon((-2, 1, 0, -2), 2))))
        doc["edges"][1].update(start=start, end=end)
        with pytest.raises(
            MalformedDocument,
            match="^bad moment-polygon document: edge 1 joins vertices %d and %d$" % (start, end),
        ):
            polygon_from_doc(doc)

    def test_exact_rationals_survive(self):
        poly = moment_polygon((3, -2), 1)
        doc = polygon_to_doc(poly)
        assert polygon_from_doc(json.loads(json.dumps(doc))) == poly

    def test_svg_renders_fractions(self):
        poly = moment_polygon((0, 3), 1)
        from plumbtoric import blow_up_corner
        from fractions import Fraction

        chopped = blow_up_corner(poly, 1, Fraction(1, 2))
        svg = render_svg(chopped)
        assert "a=1/2" in svg


# Random documents for the two commands that read one.  Itinerary numbers stay
# small (|numerator| <= 10, denominator <= 6, bound <= 10): the orbit descent
# itself has no size cap, so tiny vertices or large bounds would run long.
junk = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-10, 10)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
small_int = st.integers(-3, 3)
rational = st.builds("{}/{}".format, st.integers(-10, 10), st.integers(1, 6))
orbit_entry = st.fixed_dictionaries(
    {},
    optional={
        "kind": st.sampled_from(["elliptic", "positive_hyperbolic", "x"]) | junk,
        "base_action": rational | junk,
        "eps_exponent": small_int | junk,
        "cz": small_int | junk,
        "multiplicity": small_int | junk,
    },
)
index_fields = {
    "alpha": st.lists(orbit_entry | junk, max_size=3) | junk,
    "beta": st.lists(orbit_entry | junk, max_size=3) | junk,
    "chi": small_int | junk,
    "cz_plus": st.lists(small_int | junk, max_size=3) | junk,
    "cz_minus": st.lists(small_int | junk, max_size=3) | junk,
}
index_doc = (
    junk
    | st.fixed_dictionaries({"c_tau": small_int, "q_tau": small_int}, optional=index_fields)
    | st.fixed_dictionaries({}, optional={"c_tau": junk, "q_tau": junk, **index_fields})
)
ray = st.lists(small_int, min_size=1, max_size=3) | junk
vertex = st.lists(rational | small_int, min_size=1, max_size=3) | junk
itinerary_fields = {
    "vertices": st.lists(vertex, max_size=4) | junk,
    "start_ray": ray,
    "end_ray": ray,
}
nonzero_ray = st.tuples(small_int, small_int).filter(any)


def anchored(r0, t0, middle, r1, t1):
    # first and last vertex on their rays; the middle ones are random
    ends = [["%d/%d" % (t0[0] * c, t0[1]) for c in r0], ["%d/%d" % (t1[0] * c, t1[1]) for c in r1]]
    return {"vertices": [ends[0], *middle, ends[1]], "start_ray": list(r0), "end_ray": list(r1)}


scale = st.tuples(st.integers(1, 4), st.integers(1, 3))
itinerary_doc = (
    junk
    | st.fixed_dictionaries({}, optional=itinerary_fields)
    | st.builds(
        lambda key, value: {**json.loads(DIP), key: value},
        st.sampled_from(sorted(itinerary_fields)),
        st.one_of(*itinerary_fields.values()),
    )
    | st.builds(anchored, nonzero_ray, scale, st.lists(st.tuples(rational, rational), max_size=2), nonzero_ray, scale)
)
action_bound = st.builds("{}/{}".format, st.integers(-1, 10), st.integers(1, 3)) | st.text(
    max_size=4
)


def run_document(argv, doc):
    """Run ``main`` on a document given on stdin; check the exit code, the
    error record and the time."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))), mock.patch.dict(
        os.environ, {"PLUMBTORIC_MAX_GENERATORS": "2000"}
    ), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert time.perf_counter() - start < 2.0
    assert code in (0, 2)
    if code == 2:
        error = json.loads(stderr.getvalue().splitlines()[-1])["error"]
        assert isinstance(error["type"], str) and isinstance(error["message"], str)


fuzz_settings = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestDocumentFuzz:
    @fuzz_settings
    @given(index_doc)
    def test_index_documents(self, doc):
        run_document(["index", "--input", "-"], doc)

    @fuzz_settings
    @given(itinerary_doc, action_bound)
    def test_itinerary_documents(self, doc, bound):
        run_document(["reeb-orbits", "--itinerary", "-", "--action-bound", bound], doc)


# flag values: small ints, LO..HI ranges (reversed ones too), rationals
# (exponents past the printable range too), the golden documents, and, in
# one draw of four, an empty string or junk.  No junk value starts with
# "--", so none is read as an abbreviated option such as --h(elp).
flag_junk = st.sampled_from(["", " ", "-", "-x", "..", "1..", "..2", "1/0", "nan", "inf", "a,b", "0x1f"])
flag_int = st.integers(-3, 8).map(str)
flag_range = st.builds("{}..{}".format, st.integers(-4, 6), st.integers(-4, 6))
flag_length = st.builds("{}..{}".format, st.integers(0, 6), st.integers(0, 6)) | st.integers(0, 6).map(str)
flag_rational = st.sampled_from(["1e99999", "1e-5000", "-1e99999", "0e99999", "2.5", "1/2"]) | st.builds(
    "{}/{}".format, st.integers(-10, 60), st.integers(0, 4)
)
flag_chain = st.lists(st.integers(-4, 4), min_size=1, max_size=6).map(lambda s: ",".join(map(str, s)))
golden_doc = st.sampled_from(
    ["itinerary.json", "itinerary_image.json", "itinerary_rational.json", "index.json", "missing.json"]
).map(lambda name: str(GOLDEN / name))


def or_junk(*values):
    good = st.one_of(*values)
    return st.sampled_from([good, good, good, flag_junk]).flatmap(lambda drawn: drawn)


def required(name, values):
    return values.map(lambda v: [name, v])


def flag(name, values):
    """Nothing, or the flag and a value drawn from ``values``."""
    return st.just([]) | required(name, values)


def switch(name):
    return st.sampled_from([[], [name]])


def command_argv(command, *parts):
    return st.tuples(*parts).map(lambda drawn: [command] + [tok for part in drawn for tok in part])


output = flag("--output", st.just("-"))
flag_argv = st.one_of(
    command_argv(
        "classify", required("--plumbing", or_junk(flag_chain, flag_int)), switch("--reduce"), output
    ),
    command_argv(
        "construct",
        required("--plumbing", or_junk(flag_chain, flag_int)),
        flag("--pivot", or_junk(flag_int)),
        flag("--heights", or_junk(st.lists(flag_rational | flag_int, max_size=6).map(",".join))),
        flag("--format", or_junk(st.sampled_from(["json", "svg"]))),
        switch("--reduce"),
        output,
    ),
    command_argv(
        "survey",
        required("--n", or_junk(flag_length)),
        required("--range", or_junk(flag_range, flag_int)),
        flag("--jobs", st.sampled_from(["-1", "0", "1"])),
        flag("--format", or_junk(st.sampled_from(["csv", "json"]))),
        switch("--exclude-minus-one"),
        output,
    ),
    command_argv(
        "reeb-orbits",
        required("--itinerary", or_junk(golden_doc)),
        required("--action-bound", or_junk(flag_rational, flag_int)),
        output,
    ),
    command_argv("index", required("--input", or_junk(golden_doc)), output),
)


class TestFlagFuzz:
    @settings(max_examples=2000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(flag_argv)
    def test_flags_exit_0_or_2_with_one_record(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        caps = {"PLUMBTORIC_MAX_SURVEY": "400", "PLUMBTORIC_MAX_GENERATORS": "500"}
        start = time.perf_counter()
        # a junk "-" names stdin as the document
        with mock.patch.object(sys, "stdin", io.StringIO("")), mock.patch.dict(
            os.environ, caps
        ), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert time.perf_counter() - start < 2.0
        assert code in (0, 2)
        if code == 0:
            assert stdout.getvalue() and not stderr.getvalue()
        else:
            assert stdout.getvalue() == ""
            (line,) = stderr.getvalue().splitlines()
            error_type = json.loads(line)["error"]["type"]
            assert issubclass(getattr(errors, error_type), PreconditionError)
