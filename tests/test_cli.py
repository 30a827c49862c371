"""Command-line interface: formats, config resolution, exit codes, determinism."""
import contextlib
import filecmp
import hashlib
import io
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qmemory import ModelParams, blp_measure, classify_dynamics, NON_MARKOVIAN
from qmemory import cli

from helpers import CANONICAL, N_CANONICAL, N_OMEGA_01

REPO = Path(__file__).resolve().parents[1]

BLP_LINE = re.compile(
    r"^N=\d+\.\d{6} class=(Markovian|NonMarkovian) intervals=\d+ tail<=\d\.\d{3}e[+-]\d+$"
)


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "qmemory", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def installed_home(tmp_path_factory):
    """Install a copy of the working tree into a temporary ``--home``.

    Uses setuptools' own ``install`` command, which needs neither ``wheel``
    nor the network and installs no dependencies. Returns the home directory
    (``bin/qmemory`` plus ``lib/python/qmemory``) and the finished install
    process, so that a failed install fails the test with its stderr.
    """
    pytest.importorskip("setuptools")
    root = tmp_path_factory.mktemp("install")
    tree = root / "tree"
    shutil.copytree(
        REPO / "src", tree / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(REPO / name, tree / name)
    home = root / "home"
    proc = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "install", "--single-version-externally-managed",
         "--record", str(root / "record.txt"), "--home", str(home)],
        capture_output=True,
        text=True,
        cwd=tree,
    )
    return home, proc


def parse_csv(text: str):
    """Split CSV text into (metadata dict, header tuple, data rows)."""
    meta = {}
    header = None
    rows = []
    for line in text.splitlines():
        if line.startswith("# "):
            body = line[2:]
            if " = " in body:
                key, _, value = body.partition(" = ")
                meta[key] = value
            else:
                meta.setdefault("_banner", []).append(body)
        elif header is None:
            header = tuple(line.split(","))
        else:
            rows.append(tuple(line.split(",")))
    return meta, header, rows


class TestTraceDistance:
    def test_csv_structure_and_frozen_row(self, tmp_path):
        out = tmp_path / "d.csv"
        proc = run_cli("trace-distance", "--t-max", "10", "--steps", "11",
                       "--out", str(out))
        assert proc.returncode == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

        text = raw.decode()
        lines = text.splitlines()
        assert lines[0] == "# qmemory 0.1.0"
        assert lines[1] == "# command: trace-distance"

        meta, header, rows = parse_csv(text)
        assert header == ("t", "D", "sigma")
        assert len(rows) == 11
        assert meta["gamma"] == "0.2" and meta["m"] == "0.5" and meta["omega"] == "0.8"
        assert meta["t_max"] == "10.0" and meta["steps"] == "11"
        assert meta["variant"] == "eq13" and meta["eps"] == "0.001"
        # metadata keys are emitted in sorted order
        meta_keys = [ln[2:].split(" = ")[0] for ln in lines if " = " in ln]
        assert meta_keys == sorted(meta_keys)

        assert rows[0] == ("0.00000000e+00", "1.00000000e+00", "-4.00000000e-01")
        assert rows[1][0] == "1.00000000e+00"
        assert rows[1][1] == "3.25373510e-01"

    def test_stdout_when_no_out_flag(self, tmp_path):
        out = tmp_path / "d.csv"
        to_file = run_cli("trace-distance", "--t-max", "5", "--steps", "6",
                          "--out", str(out))
        to_stdout = run_cli("trace-distance", "--t-max", "5", "--steps", "6")
        assert to_file.returncode == 0 and to_stdout.returncode == 0
        assert to_stdout.stdout == out.read_text()

    def test_nine_significant_digits(self, tmp_path):
        out = tmp_path / "d.csv"
        run_cli("trace-distance", "--t-max", "3", "--steps", "4", "--out", str(out))
        _, _, rows = parse_csv(out.read_text())
        cell = re.compile(r"^-?\d\.\d{8}e[+-]\d{2}$")
        for row in rows:
            for value in row:
                assert cell.match(value), value


class TestConfigFile:
    def test_precedence_flags_over_config_over_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# sample configuration\n"
            "gamma = 0.5\n"
            "omega = 0.1   # trailing comment\n"
            "\n"
            "steps = 7\n"
        )
        out = tmp_path / "d.csv"
        proc = run_cli("trace-distance", "--config", str(cfg),
                       "--gamma", "0.3", "--out", str(out))
        assert proc.returncode == 0
        meta, _, rows = parse_csv(out.read_text())
        assert meta["gamma"] == "0.3"   # flag wins
        assert meta["omega"] == "0.1"   # config wins over default
        assert meta["steps"] == "7"     # config wins over default
        assert meta["m"] == "0.5"       # untouched default
        assert len(rows) == 7

    def test_out_key_in_config(self, tmp_path):
        target = tmp_path / "from-config.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out = {target}\nsteps = 3\nt_max = 1.0\n")
        proc = run_cli("trace-distance", "--config", str(cfg))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert target.exists()

    def test_variant_key_in_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("variant = entropy\n")
        out = tmp_path / "e.csv"
        proc = run_cli("entanglement", "--config", str(cfg), "--t-max", "5",
                       "--steps", "6", "--out", str(out))
        assert proc.returncode == 0
        meta, _, _ = parse_csv(out.read_text())
        assert meta["variant"] == "entropy"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 2\n")
        proc = run_cli("trace-distance", "--config", str(cfg))
        assert proc.returncode == 1
        assert "unknown key" in proc.stderr

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = fast\n")
        proc = run_cli("trace-distance", "--config", str(cfg))
        assert proc.returncode == 1
        assert "bad value" in proc.stderr

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma 0.3\n")
        proc = run_cli("trace-distance", "--config", str(cfg))
        assert proc.returncode == 1

    def test_missing_file_is_io_error(self, tmp_path):
        proc = run_cli("trace-distance", "--config", str(tmp_path / "absent.cfg"))
        assert proc.returncode == 3


class TestSweep:
    def test_family_rows_and_flags(self, tmp_path):
        out = tmp_path / "s.csv"
        proc = run_cli("sweep", "--param", "omega", "--from", "0", "--to", "0.8",
                       "--points", "3", "--t-max", "5", "--steps", "6",
                       "--out", str(out))
        assert proc.returncode == 0
        meta, header, rows = parse_csv(out.read_text())
        assert header == ("sweep_param", "sweep_value", "t", "D", "N_flag")
        assert len(rows) == 18
        assert meta["param"] == "omega"
        assert meta["from"] == "0.0" and meta["to"] == "0.8" and meta["points"] == "3"
        assert "omega" not in meta  # swept value lives in the rows

        values = sorted({float(r[1]) for r in rows})
        assert values == pytest.approx([0.0, 0.4, 0.8])
        # block order: ascending in the swept value, time ascending inside
        assert [float(r[1]) for r in rows] == sorted(float(r[1]) for r in rows)
        for value in values:
            block_t = [float(r[2]) for r in rows if float(r[1]) == value]
            assert block_t == sorted(block_t)
        for row in rows:
            assert row[0] == "omega"
            p = ModelParams(0.2, 0.5, float(row[1]))
            expected = 1 if classify_dynamics(p, 1e-3).regime == NON_MARKOVIAN else 0
            assert row[4] == str(expected)

    def test_uncoupled_slice_decays_monotonically(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli("sweep", "--param", "omega", "--from", "0", "--to", "0.8",
                "--points", "2", "--t-max", "6", "--steps", "13", "--out", str(out))
        _, _, rows = parse_csv(out.read_text())
        flat = [float(r[3]) for r in rows if float(r[1]) == 0.0]
        assert all(hi > lo for hi, lo in zip(flat, flat[1:]))  # strictly decreasing
        coupled = [float(r[3]) for r in rows if float(r[1]) == 0.8]
        assert any(hi < lo for hi, lo in zip(coupled, coupled[1:]))  # revives

    def test_argument_errors(self):
        assert run_cli("sweep", "--from", "0", "--to", "1", "--points", "3").returncode == 1
        assert run_cli("sweep", "--param", "tau", "--from", "0", "--to", "1",
                       "--points", "3").returncode == 1
        assert run_cli("sweep", "--param", "omega", "--from", "0", "--to", "1",
                       "--points", "0").returncode == 1
        assert run_cli("sweep", "--param", "omega", "--from", "1", "--to", "0",
                       "--points", "3").returncode == 1


class TestBlp:
    def test_canonical_line(self):
        proc = run_cli("blp")
        assert proc.returncode == 0
        line = proc.stdout.strip()
        assert BLP_LINE.match(line), line
        assert line.startswith("N=0.279182 class=NonMarkovian intervals=19 tail<=")

    def test_uncoupled_line(self):
        proc = run_cli("blp", "--omega", "0")
        assert proc.returncode == 0
        assert proc.stdout.startswith("N=0.000000 class=Markovian intervals=0 tail<=")

    def test_weak_coupling_line(self):
        proc = run_cli("blp", "--omega", "0.1")
        assert proc.returncode == 0
        assert proc.stdout.startswith("N=0.000058 class=Markovian intervals=2 tail<=")

    def test_interval_csv(self, tmp_path):
        out = tmp_path / "b.csv"
        proc = run_cli("blp", "--out", str(out))
        assert proc.returncode == 0
        meta, header, rows = parse_csv(out.read_text())
        assert header == ("t_start", "t_end", "gain")
        assert len(rows) == 19
        gains = [float(r[2]) for r in rows]
        # cells carry 9 significant digits, so the sum carries their round-off
        assert math.fsum(gains) == pytest.approx(N_CANONICAL, abs=1e-8)
        for t_start, t_end, gain in ((float(c) for c in r) for r in rows):
            assert 0.0 < t_start < t_end
            assert gain > 0.0

    def test_interval_limit_rejected_quickly(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qmemory", "blp", "--gamma", "0.001", "--omega", "1000"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 1
        assert "100000" in proc.stderr
        assert proc.stdout == ""


class TestRowLimit:
    @pytest.mark.parametrize("args", [
        ["trace-distance", "--steps", "1000000000"],
        ["sweep", "--param", "omega", "--from", "0", "--to", "1",
         "--points", "1000000000", "--steps", "1000000000"],
        ["entanglement", "--steps", "1000000001"],
        ["entanglement", "--gammas", "0.1,0.2,0.3", "--steps", "333334"],
    ])
    def test_rejected_before_allocation(self, args):
        proc = subprocess.run([sys.executable, "-m", "qmemory", *args],
                              capture_output=True, text=True, timeout=10)
        assert cli.MAX_ROWS == 1_000_000
        assert proc.returncode == 1
        assert "limit of 1000000 rows" in proc.stderr
        assert proc.stdout == ""

    def test_limit_itself_is_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_ROWS", 6)
        out = tmp_path / "s.csv"
        base = ["sweep", "--param", "m", "--from", "0", "--to", "1", "--out", str(out)]
        assert cli.main(base + ["--points", "2", "--steps", "3"]) == 0
        assert sum(not line.startswith("#") for line in out.read_text().splitlines()) == 7
        assert cli.main(base + ["--points", "7", "--steps", "2"]) == 1
        assert cli.main(["entanglement", "--steps", "6", "--out", str(out)]) == 0
        assert cli.main(["entanglement", "--steps", "7", "--out", str(out)]) == 1

    def test_sweep_interval_budget(self):
        # 1000 members near 95 000 intervals each would take about 20 s
        proc = subprocess.run(
            [sys.executable, "-m", "qmemory", "sweep", "--param", "omega", "--from", "1000",
             "--to", "1040", "--points", "1000", "--gamma", "0.1", "--steps", "2"],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 1
        assert "limit of 100000 intervals" in proc.stderr
        assert proc.stdout == ""


class TestEntanglement:
    def test_default_columns(self, tmp_path):
        out = tmp_path / "e.csv"
        proc = run_cli("entanglement", "--t-max", "10", "--steps", "11",
                       "--out", str(out))
        assert proc.returncode == 0
        meta, header, rows = parse_csv(out.read_text())
        assert header == ("t", "E", "D")
        assert len(rows) == 11
        assert float(rows[0][1]) == 0.0
        assert float(rows[0][2]) == 1.0

    def test_variant_changes_values(self, tmp_path):
        out13 = tmp_path / "eq13.csv"
        out_h = tmp_path / "entropy.csv"
        run_cli("entanglement", "--t-max", "10", "--steps", "11",
                "--variant", "eq13", "--out", str(out13))
        run_cli("entanglement", "--t-max", "10", "--steps", "11",
                "--variant", "entropy", "--out", str(out_h))
        _, _, rows13 = parse_csv(out13.read_text())
        _, _, rows_h = parse_csv(out_h.read_text())
        assert [r[0] for r in rows13] == [r[0] for r in rows_h]
        assert any(a[1] != b[1] for a, b in zip(rows13, rows_h))

    def test_published_plateau_reaches_one(self, tmp_path):
        out = tmp_path / "e.csv"
        run_cli("entanglement", "--t-max", "75", "--steps", "2", "--out", str(out))
        _, _, rows = parse_csv(out.read_text())
        assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-4)

    def test_gamma_family(self, tmp_path):
        out = tmp_path / "fam.csv"
        proc = run_cli("entanglement", "--gammas", "0.5,0.1,0.2", "--t-max", "5",
                       "--steps", "6", "--out", str(out))
        assert proc.returncode == 0
        meta, header, rows = parse_csv(out.read_text())
        assert header == ("gamma", "t", "E")
        assert len(rows) == 18
        assert meta["gammas"] == "0.1,0.2,0.5"  # sorted
        assert "gamma" not in meta
        order = [float(r[0]) for r in rows]
        assert order == sorted(order)

    def test_bad_gammas(self):
        assert run_cli("entanglement", "--gammas", "a,b").returncode == 1
        assert run_cli("entanglement", "--gammas", "").returncode == 1


class TestValidateCommand:
    def test_all_checks_reported(self, validate_cli_run):
        proc = validate_cli_run
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert sum(1 for ln in lines if ln.startswith("[PASS]")) == 10
        assert not any(ln.startswith("[FAIL]") for ln in lines)
        assert lines[-1] == "10/10 checks passed"

    def test_discrepancy_rows_shown(self, validate_cli_run):
        out = validate_cli_run.stdout
        assert "    published.b(0)|t=0,b0=1 -> 1.5 (expected 1)" in out
        assert "    published.c(0)|t=0,c0=0 -> -0.5 (expected 0)" in out
        assert "    published.d(0)|t=0,m=0.5,d0=0 -> 0.75 (expected 0)" in out


class TestExitCodes:
    def test_invalid_arguments(self):
        assert run_cli("trace-distance", "--bogus").returncode == 1
        assert run_cli("trace-distance", "--gamma", "-1").returncode == 1
        assert run_cli("trace-distance", "--steps", "1").returncode == 1
        assert run_cli("trace-distance", "--t-max", "-5").returncode == 1
        assert run_cli("trace-distance", "--variant", "bogus").returncode == 1
        assert run_cli("no-such-command").returncode == 1
        assert run_cli().returncode == 1

    def test_io_error(self, tmp_path):
        proc = run_cli("trace-distance", "--out",
                       str(tmp_path / "missing-dir" / "x.csv"))
        assert proc.returncode == 3

    def test_version_and_help(self):
        version = run_cli("--version")
        assert version.returncode == 0
        assert version.stdout.strip() == "qmemory 0.1.0"
        for args in (["--help"], ["trace-distance", "--help"], ["sweep", "--help"]):
            assert run_cli(*args).returncode == 0

    def test_installed_script(self, installed_home, monkeypatch):
        home, install = installed_home
        assert install.returncode == 0, f"setuptools install failed:\n{install.stderr}"
        # Run the installed copy only: its script first on PATH, its library
        # the only PYTHONPATH entry, so neither src/ nor a stale global
        # install can answer.
        lib = home / "lib" / "python"
        monkeypatch.setenv("PATH", os.pathsep.join([str(home / "bin"), os.environ["PATH"]]))
        monkeypatch.setenv("PYTHONPATH", str(lib))
        where = subprocess.run(
            [sys.executable, "-c", "import qmemory; print(qmemory.__file__)"],
            capture_output=True, text=True, cwd=home,
        )
        assert Path(where.stdout.strip()).parent == lib / "qmemory"

        exe = shutil.which("qmemory")
        assert exe is not None, "console script not on PATH"
        assert Path(exe).parent == home / "bin"
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "qmemory 0.1.0"


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cases = {
            "trace": ["trace-distance", "--t-max", "8", "--steps", "17"],
            "sweep": ["sweep", "--param", "gamma", "--from", "0.1", "--to", "0.5",
                      "--points", "3", "--t-max", "4", "--steps", "9"],
            "blp": ["blp"],
            "entangle": ["entanglement", "--gammas", "0.1,0.2", "--t-max", "4",
                         "--steps", "9"],
        }
        for name, args in cases.items():
            first = tmp_path / f"{name}-1.csv"
            second = tmp_path / f"{name}-2.csv"
            assert run_cli(*args, "--out", str(first)).returncode == 0
            assert run_cli(*args, "--out", str(second)).returncode == 0
            assert filecmp.cmp(first, second, shallow=False)

    def test_golden_digests(self, tmp_path):
        cases = {
            "afc1f2755af27e9acfb1b64238ea518e3dfefeca2e0e0c9de35be6ba5e5c53af": ["blp"],
            "dae413d69b8ea28abb88443f051023a788255132b238d0ad0113235aef773756": [
                "sweep", "--param", "omega", "--from", "0", "--to", "1.2",
                "--points", "7", "--t-max", "20", "--steps", "41",
            ],
        }
        for digest, args in cases.items():
            out = tmp_path / "golden.csv"
            assert run_cli(*args, "--out", str(out)).returncode == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, args

    def test_blp_stdout_deterministic(self):
        assert run_cli("blp").stdout == run_cli("blp").stdout


# --- arbitrary arguments ------------------------------------------------------

# Finite values across the whole double range, with its extremes made likely.
ANY_FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308]),
)
ANY_COUNT = st.one_of(st.integers(-3, 3000), st.integers(-10**12, 10**12))
# The costliest accepted call measured is a 500000-member sweep at the row
# limit: about 30 s on 2 cores.  A call past this budget counts as a hang.
EXAMPLE_BUDGET_S = 90


@st.composite
def cli_arguments(draw):
    """An argv for one CSV-producing subcommand with random finite values."""
    command = draw(st.sampled_from(["trace-distance", "sweep", "blp", "entanglement"]))
    argv = [command]
    for flag in ("gamma", "m", "omega", "t-max"):
        if draw(st.booleans()):
            argv.append(f"--{flag}={draw(ANY_FLOAT)!r}")
    if draw(st.booleans()):
        argv.append(f"--steps={draw(ANY_COUNT)}")
    if command == "sweep":
        argv += [f"--param={draw(st.sampled_from(['gamma', 'm', 'omega']))}",
                 f"--from={draw(ANY_FLOAT)!r}", f"--to={draw(ANY_FLOAT)!r}",
                 f"--points={draw(ANY_COUNT)}"]
    if command == "entanglement" and draw(st.booleans()):
        gammas = draw(st.lists(ANY_FLOAT, min_size=1, max_size=4))
        argv.append("--gammas=" + ",".join(repr(g) for g in gammas))
    return argv


class _Hang(Exception):
    pass


def _raise_hang(signum, frame):
    raise _Hang


class TestArbitraryArguments:
    @settings(max_examples=150, derandomize=True)
    @given(argv=cli_arguments())
    def test_exit_cleanly_within_budget(self, argv):
        err = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _raise_hang)
        signal.alarm(EXAMPLE_BUDGET_S)
        try:
            with tempfile.TemporaryDirectory() as tmp, \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv + ["--out", os.path.join(tmp, "out.csv")])
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 1), err.getvalue()
        assert "Traceback" not in err.getvalue()
