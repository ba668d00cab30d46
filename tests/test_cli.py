"""CLI contract: payload shapes, exit codes, determinism, caching."""

import contextlib
import io
import json
import resource
import subprocess
import sys
from hashlib import sha256
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from derhamz import cli, theorems
from derhamz.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _refuse(*args):
    raise AssertionError("a verifier of another statement ran")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestCohomologyCommand:
    def test_one_variable(self, capsys):
        code, doc = run_json(capsys, "cohomology", "-r", "1", "-n", "4")
        assert code == 0
        assert doc["schema_version"] == "1"
        assert doc["command"] == "cohomology"
        assert {"i": 1, "free_rank": 0, "invariant_factors": [4]} \
            in doc["results"]

    def test_rank_two(self, capsys):
        code, doc = run_json(capsys, "cohomology", "-r", "2", "-n", "4")
        rows = {row["i"]: row for row in doc["results"]}
        assert rows[1]["invariant_factors"] == [2, 4, 4]
        assert rows[2]["invariant_factors"] == [2]

    def test_degree_zero(self, capsys):
        code, doc = run_json(capsys, "cohomology", "-r", "1", "-n", "0")
        assert doc["results"][0] == {"i": 0, "free_rank": 1,
                                     "invariant_factors": []}

    def test_csv(self, capsys):
        code, out = run_cli(capsys, "cohomology", "-r", "1", "-n", "4", "--csv")
        assert code == 0
        assert out.splitlines()[0] == "i,free_rank,invariant_factors"
        assert "1,0,4" in out

    def test_latex(self, capsys):
        code, out = run_cli(capsys, "cohomology", "-r", "2", "-n", "4",
                            "--latex")
        assert code == 0
        assert r"\mathbb{Z}/2" in out and r"(\mathbb{Z}/4)^{2}" in out


class TestPagesCommand:
    def test_golden(self, capsys):
        code, doc = run_json(capsys, "pages", "-r", "2", "-n", "4", "-p", "2")
        assert code == 0
        dims = [page["dims"] for page in doc["results"]["pages"]]
        assert dims == [[3, 4, 1], [2, 2, 0], [0, 0, 0]]
        statuses = [page.get("identified_with", {}).get("status")
                    for page in doc["results"]["pages"][:2]]
        assert statuses == ["pass", "pass"]
        assert doc["results"]["pages"][2]["expected_zero"] is True

    def test_vanishing_page_one(self, capsys):
        code, doc = run_json(capsys, "pages", "-r", "1", "-n", "3", "-p", "2")
        assert doc["results"]["pages"][0]["dims"] == [0, 0]

    def test_degenerate_degree_zero(self, capsys):
        code, doc = run_json(capsys, "pages", "-r", "1", "-n", "0", "-p", "2")
        assert code == 0
        assert "degenerate" in doc["results"]["note"]

    def test_latex_unsupported(self, capsys):
        code, out = run_cli(capsys, "pages", "-r", "2", "-n", "4", "-p", "2",
                            "--latex")
        assert code == 2


class TestBasisCommand:
    def test_documented_orderings(self, capsys):
        code, doc = run_json(capsys, "basis", "-r", "1", "-n", "4", "-i", "1")
        assert doc["results"] == {"dim": 1,
                                  "elements": [{"alpha": [3], "T": [1]}]}
        code, doc = run_json(capsys, "basis", "-r", "2", "-n", "2", "-i", "1")
        assert [e["alpha"] for e in doc["results"]["elements"]] == \
            [[1, 0], [0, 1], [1, 0], [0, 1]]
        assert [e["T"] for e in doc["results"]["elements"]] == \
            [[1], [1], [2], [2]]
        code, doc = run_json(capsys, "basis", "-r", "2", "-n", "4", "-i", "3")
        assert doc["results"]["dim"] == 0

    def test_csv(self, capsys):
        code, out = run_cli(capsys, "basis", "-r", "2", "-n", "2", "-i", "1",
                            "--csv")
        assert code == 0
        assert out.splitlines()[0] == "index,alpha,T"
        assert out.splitlines()[1] == "0,1 0,1"


class TestVerifyCommand:
    def test_all_small(self, capsys):
        code, doc = run_json(capsys, "verify", "--all", "-r", "1", "-n", "6")
        assert code == 0
        assert doc["results"]["failed"] == 0

    def test_single_statement(self, capsys):
        code, doc = run_json(capsys, "verify", "--statement", "filtration",
                             "-r", "2", "-n", "6")
        assert code == 0
        assert all(rep["statement"] == "filtration"
                   for rep in doc["results"]["reports"])

    def test_failure_exit_code(self, capsys):
        code, doc = run_json(capsys, "verify", "--statement", "filtration",
                             "-r", "2", "-n", "8")
        assert code == 1
        assert doc["results"]["failed"] == 1
        failing = [rep for rep in doc["results"]["reports"]
                   if rep["status"] == "fail"]
        assert failing and "witness" in failing[0]

    def test_unknown_statement_exits_2(self, capsys):
        code = main(["verify", "--statement", "euler", "-r", "2", "-n", "4"])
        capsys.readouterr()
        assert code == 2

    def test_bounds_guard_exits_2(self, capsys):
        code = main(["verify", "--all", "-r", "9999", "-n", "9999"])
        capsys.readouterr()
        assert code == 2

    def test_statement_is_its_subset_of_all(self, capsys, monkeypatch):
        # --statement S prints the S reports of --all byte for byte, and
        # never calls another statement's verifier
        _, everything = run_json(capsys, "verify", "--all", "-r", "2",
                                 "-n", "6")
        for statement in theorems.STATEMENTS:
            reports = [rep for rep in everything["results"]["reports"]
                       if rep["statement"] == statement]
            expected = dict(everything, parameters=dict(
                everything["parameters"], statement=statement))
            expected["results"] = {
                "total": len(reports),
                "failed": sum(rep["status"] == "fail" for rep in reports),
                "reports": reports}
            with monkeypatch.context() as patch:
                for other in theorems.STATEMENTS:
                    if other != statement:
                        patch.setattr(theorems, f"verify_{other}", _refuse)
                code, out = run_cli(capsys, "verify", "--statement",
                                    statement, "-r", "2", "-n", "6")
            assert code == 0, statement
            assert reports, statement
            assert out == json.dumps(expected, indent=2) + "\n", statement

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "integral_cohomology", exhausted)
        code = main(["cohomology", "-r", "2", "-n", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    def test_annihilation_sweep_fits_in_one_gib(self):
        # the statement checks work per block, so the sweep needs far less
        # than the address-space cap of its own child process
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        cmd = [sys.executable, "-m", "derhamz.cli", "verify", "--statement",
               "annihilation", "-r", "4", "-n", "12"]
        run = subprocess.run(cmd, capture_output=True, timeout=120,
                             preexec_fn=cap_address_space,
                             env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        assert run.returncode == 0, run.stderr.decode()[-500:]

    @pytest.mark.parametrize("argv, digest", [
        ("pages -r 8 -n 16 -p 2", "066f4920749076d0f26a720acd2e0170"
                                  "80e9eb151432a4b15c4dff2a3fcc96a0"),
        ("verify --statement page_identification -r 8 -n 16",
         "ea543ed8c6234d198543e208a8a45502"
         "2aa662eaf258d9490af61e1e59d28868"),
    ])
    def test_eight_variables_fit_in_64_mib(self, argv, digest):
        # the couples and the page identification walk the 16384 distinct
        # ordered weights of degree 16, not the 245157 blocks, so both run
        # in a child capped at 64 MiB of address space, with the stdout
        # they had when they enumerated the blocks
        _assert_fits_in_64_mib(argv, digest)

    def test_seven_variable_annihilation_fits_in_64_mib(self):
        # the Euler certificate builds each block d, compares it and drops
        # it; only a verdict per ordered weights is kept, so the 4096
        # ordered weights of degree 14 fit where keeping every d did not
        _assert_fits_in_64_mib("verify --statement annihilation -r 7 -n 14",
                               "17991264e8419a9ff802c18c375f7576"
                               "a88ce2879d16ff1879f5ba96b179df4c")

    def test_latex_rejected_before_the_sweep(self, capsys, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("sweep ran")

        monkeypatch.setattr(cli, "sweep", no_sweep)
        code = main(["verify", "--all", "-r", "1", "-n", "2", "--latex"])
        capsys.readouterr()
        assert code == 2


def _assert_fits_in_64_mib(argv: str, digest: str):
    """Runs the CLI with --unsafe-bounds in a child capped at 64 MiB of
    address space and checks its exit code 0 and its stdout's sha256."""
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (64 << 20, 64 << 20))

    run = subprocess.run(
        [sys.executable, "-m", "derhamz", *argv.split(), "--unsafe-bounds"],
        capture_output=True, timeout=60, preexec_fn=cap_address_space,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    assert run.returncode == 0, run.stderr.decode()[-500:]
    assert sha256(run.stdout).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    "pages -r 2 -n 4 -p 17",
    "pages -r 2 -n 4 -p 2 -k 0",
    "verify --statement filtration -r 1 -n 17 --unsafe-bounds",
    "verify --all -r 1 -n 17 --unsafe-bounds",
    "cohomology -r 2 -n -3 --unsafe-bounds",
    "cohomology -r -1 -n 3 --unsafe-bounds",
    "pages -r 3 -n 8 -p 2 -k 2000",
])
def test_domain_errors_exit_2(capsys, argv):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


def test_start_up_imports_only_what_every_command_needs():
    # a fresh interpreter imports the CLI and builds its parser; -S keeps
    # the modules that site and .pth files load from hiding an import
    code = ("import sys; before = set(sys.modules); "
            "from derhamz import cli; cli.build_parser(); "
            "print(*sorted(set(sys.modules) - before))")
    run = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, timeout=60,
                         env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    assert run.returncode == 0, run.stderr.decode()[-500:]
    added = set(run.stdout.decode().split())
    assert {"derhamz.cli", "argparse"} <= added
    assert not added & {"dataclasses", "inspect", "hashlib", "pathlib"}


@pytest.mark.parametrize("argv", [
    "cohomology -r 1100 -n 1 --unsafe-bounds",
    "basis -r 1100 -n 1 -i 1 --unsafe-bounds",
    "pages -r 1100 -n 1 -p 2 --unsafe-bounds",
])
def test_more_variables_than_the_recursion_limit(argv):
    # the basis is enumerated without one recursion level per variable; a
    # child process, so that the large bases are not cached for the session
    run = subprocess.run([sys.executable, "-m", "derhamz", *argv.split()],
                         capture_output=True, timeout=60,
                         env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    assert run.returncode == 0, run.stderr.decode()[-500:]
    assert json.loads(run.stdout)["parameters"]["r"] == 1100


@st.composite
def cli_argv(draw):
    """argv from a small grammar: the four commands, in- and out-of-range
    sizes, primes and page counts, format flags, and one option dropped or
    given twice."""
    # each value is drawn from its valid range or from the whole range, so
    # that answered inputs are not rare
    def value(valid, whole):
        return str(draw(st.one_of(valid, whole)))

    command = draw(st.sampled_from(["cohomology", "pages", "basis",
                                    "verify"]))
    unsafe = draw(st.booleans())
    if unsafe:
        # past the safe bounds only where every size is cheap
        rank = value(st.integers(0, 1), st.integers(-2, 1))
        degree = value(st.integers(0, 20), st.integers(0, 20))
    else:
        rank = value(st.integers(1, 4), st.integers(-2, 6))
        degree = value(st.integers(0, 6), st.integers(-2, 6))
    opts = [["-r", rank], ["-n", degree]]
    if command == "pages":
        opts.append(["-p", value(st.sampled_from([2, 3]),
                                 st.sampled_from([0, 1, 2, 3, 4, 17]))])
        if draw(st.booleans()):
            opts.append(["-k", value(st.integers(1, 4), st.integers(-1, 4))])
    elif command == "basis":
        opts.append(["-i", str(draw(st.integers(-1, 3)))])
    elif command == "verify":
        opts.append(draw(st.sampled_from(
            [["--all"], ["--statement", "filtration"],
             ["--statement", "cartier"]])))
    opts.append(draw(st.sampled_from([[], ["--json"], ["--csv"],
                                      ["--latex"]])))
    if unsafe:
        opts.append(["--unsafe-bounds"])
    change = draw(st.sampled_from(["none", "none", "drop", "duplicate"]))
    picked = draw(st.integers(0, len(opts) - 1))
    if change == "drop":
        del opts[picked]
    elif change == "duplicate":
        opts.append(opts[picked])
    opts = draw(st.permutations(opts))
    return [command] + [arg for opt in opts for arg in opt]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cli_argv())
@example(["pages", "-r", "0", "-n", "2", "-p", "2", "--unsafe-bounds"])
@example(["pages", "-r", "2", "-n", "1", "-p", "3"])
def test_any_argv_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert argv[0] == "verify"
    if code == 0 and argv[0] == "pages" and "--csv" not in argv:
        doc = json.loads(out.getvalue())
        for page in doc["results"]["pages"]:
            r, n = doc["parameters"]["r"], doc["parameters"]["n"]
            assert len(page["dims"]) == min(n, r) + 1, argv


def _parse(parser, argv):
    """What parsing argv prints and returns: (exit code or None, stdout,
    stderr, the parsed options or None)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed, code = vars(parser.parse_args(argv)), None
        except SystemExit as exc:
            parsed, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), parsed


@pytest.mark.parametrize("argv", [
    "--version", "--help", "", "nope", "-r 1 cohomology",
    "cohomology --help", "pages -h", "basis --help", "verify --help",
    "cohomology", "cohomology -r x -n 2", "cohomology -r 1 -n 2 extra",
    "cohomology --version", "cohomology pages -r 1 -n 2",
    "cohomology -r 1 -n 2 --json --csv", "basis -r 1 -n 2 -i 1 --latex",
    "pages -r 1 -n 2 -p 2 -k", "verify -r 1 -n 2",
    "verify --all --statement cartier -r 1 -n 2",
    "verify --statement nope -r 1 -n 2", "cohomology -r 1 -n 2",
])
def test_one_command_parser_is_the_full_parser(argv):
    # main builds only the subparser its first argument names; that
    # parser prints, exits and parses as the full parser does
    argv = argv.split()
    one = cli.build_parser(argv[0] if argv else None)
    assert _parse(one, argv) == _parse(cli.build_parser(), argv)


def test_main_builds_only_the_named_command(capsys, monkeypatch):
    build_parser = cli.build_parser
    built = []

    def recording(command=None):
        parser = build_parser(command)
        (commands,) = [action.choices for action in parser._actions
                       if action.dest == "command"]
        built.append(list(commands))
        return parser

    monkeypatch.setattr(cli, "build_parser", recording)
    assert main(["basis", "-r", "1", "-n", "2", "-i", "1"]) == 0
    assert main(["--version"]) == 0
    capsys.readouterr()
    assert built == [["basis"], list(cli.COMMANDS)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cli_argv())
def test_one_command_parser_parses_any_argv_alike(argv):
    assert (_parse(cli.build_parser(argv[0]), argv)
            == _parse(cli.build_parser(), argv))


class TestContracts:
    def test_json_roundtrip(self, capsys):
        _, out = run_cli(capsys, "cohomology", "-r", "2", "-n", "6")
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc

    def test_byte_identical_repetition(self, capsys):
        _, first = run_cli(capsys, "verify", "--all", "-r", "1", "-n", "6")
        _, second = run_cli(capsys, "verify", "--all", "-r", "1", "-n", "6")
        assert first == second

    def test_byte_identical_across_processes(self):
        cmd = [sys.executable, "-m", "derhamz.cli",
               "cohomology", "-r", "2", "-n", "6"]
        runs = [subprocess.run(cmd, capture_output=True, check=True,
                               env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
                for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout

    def test_cache_directory(self, capsys, tmp_path):
        args = ("cohomology", "-r", "2", "-n", "4", "--cache", str(tmp_path))
        _, first = run_cli(capsys, *args)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        _, second = run_cli(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("sub", [(), ("x",)])
    def test_unusable_cache_directory_exits_2(self, capsys, tmp_path,
                                              monkeypatch, sub):
        # DIR is a regular file, or a path below one: one error line and
        # exit 2 before any work, not a traceback after it
        blocker = tmp_path / "file"
        blocker.write_text("")

        def no_work(*args):
            raise AssertionError("the computation ran")

        monkeypatch.setattr(cli, "integral_cohomology", no_work)
        code = main(["cohomology", "-r", "2", "-n", "4",
                     "--cache", str(blocker.joinpath(*sub))])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    def test_cache_key_includes_version(self, capsys, tmp_path, monkeypatch):
        args = ("cohomology", "-r", "1", "-n", "4", "--cache", str(tmp_path))
        run_cli(capsys, *args)
        first = {f.name for f in tmp_path.iterdir()}
        assert len(first) == 1
        monkeypatch.setattr(cli, "__version__", "0.0.0-other")
        run_cli(capsys, *args)
        second = {f.name for f in tmp_path.iterdir()}
        assert len(second) == 2 and first < second

    @pytest.mark.parametrize("fmt", ["--json", "--csv"])
    def test_verify_reads_the_cache(self, capsys, tmp_path, monkeypatch, fmt):
        args = ("verify", "--statement", "filtration", "-r", "2", "-n", "8",
                fmt, "--cache", str(tmp_path))
        code, first = run_cli(capsys, *args)
        assert code == 1

        def no_sweep(*args):
            raise AssertionError("sweep ran")

        monkeypatch.setattr(cli, "sweep", no_sweep)
        code, second = run_cli(capsys, *args)
        assert code == 1
        assert second == first

    def test_unsafe_bounds_override(self, capsys):
        code, _ = run_json(capsys, "cohomology", "-r", "1", "-n", "17",
                           "--unsafe-bounds")
        assert code == 0

    def test_version(self, capsys):
        code = main(["--version"])
        out = capsys.readouterr().out
        assert code == 0 and out.strip()


JSON_VALUES = st.recursive(
    st.none() | st.booleans()
    | st.integers() | st.integers(-2 ** 200, 2 ** 200)
    | st.text(),         # controls, non-ASCII, astral code points
    lambda inner: (st.lists(inner, max_size=4)
                   | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=4)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
@example({"witness": {"check": "d∘d", "matrix": [[], [-1, 0]]},
          "empty": {}, "none": None, "flags": [True, False],
          "text": "\x00\t\n\"\\\x7fé\U0001f600"})
def test_the_document_writer_is_json_dumps_with_indent_2(value):
    # the CLI writes its JSON documents with its own writer, which must give
    # the bytes of json.dumps(value, indent=2): nested and empty containers,
    # control and non-ASCII characters, large and negative ints, bools and
    # None
    assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, {1: 2}, {"a": {None: 0}}, {1, 2},
                                   b"bytes"])
def test_the_document_writer_rejects_what_a_document_never_holds(value):
    with pytest.raises(TypeError):
        cli._json_text(value)
