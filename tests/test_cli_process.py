"""The command line run as its own process: help and version, usage errors
without a traceback, the precision variable, and what importing the
command-line module loads."""
import os
import subprocess
import sys

import pytest

from fekete.cli import COMMANDS

#: the test process's environment without a precision setting of its own
_ENV = {**{k: v for k, v in os.environ.items() if k != "FEKETE_PRECISION"},
        "PYTHONPATH": os.pathsep.join(sys.path)}


def fekete(*args, **env):
    return subprocess.run([sys.executable, "-m", "fekete.cli", *args], env={**_ENV, **env},
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("args", [("--help",), ("--version",)]
                         + [(name, "--help") for name in COMMANDS])
def test_help_and_version_exit_0(args):
    result = fekete(*args)
    assert result.returncode == 0, result.stderr
    assert ("0.1.0" if args == ("--version",) else "usage:") in result.stdout


@pytest.mark.parametrize("args", [
    (),
    ("exact", "--N", "3", "--no-such-option", "1"),
    ("zeros", "--p", "1", "--q", "1"),
    ("verify", "--n", "20,40"),
    ("exact", "--N", "3", "--precision", "foo"),
    ("exact", "--n", "x", "--p", "1", "--q", "1"),
    ("exact", "--n", "3", "--p", "-1e5", "--q", "1"),
    # coeffs writes JSON only and takes no --format
    ("coeffs", "--kind", "interval", "--order", "1", "--format", "csv"),
    # the interval kind takes no charges
    ("exact", "--N", "2..4", "--p", "1", "--q", "1"),
])
def test_usage_errors_exit_2_without_traceback(args):
    result = fekete(*args)
    assert result.returncode == 2
    assert "error:" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("args, message", [
    # (log 2) n^2 alone is past the float64 maximum
    (("exact", "--n", str(10**160), "--p", "1", "--q", "1"), "std precision"),
    # 2p - 1 rounds to -1 for the Jacobi kinds
    (("coeffs", "--kind", "disc", "--p", "1e-17", "--q", "0.5", "--order", "2"),
     "rounds to -1 in float64 at p=1e-17"),
    # c_4 of the potential tail is past the float64 maximum
    (("coeffs", "--kind", "potential", "--p", "1e77", "--q", "1", "--order", "4"),
     "is not finite in std precision"),
    (("zeros", "--n", "5", "--p", "1", "--q", "1e300"), "over- or underflows float64"),
    (("zeros", "--n", str(10**160), "--p", "1", "--q", "1"), "past the sizes numpy can index"),
])
def test_capacity_errors_exit_2_without_traceback(args, message):
    result = fekete(*args)
    assert result.returncode == 2
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_singular_hessian_is_reported():
    # both charges round to nothing next to the pair terms in float64
    # (unequal: p = q takes the half-size route first)
    result = fekete("minimize", "--n", "5", "--p", "1e-300", "--q", "2e-300", "--format", "json")
    assert result.returncode == 0
    assert result.stderr == ""
    assert '"stop": "singular"' in result.stdout


def test_negative_number_is_a_value():
    # "-1e5" reaches the charge check instead of being read as an option
    result = fekete("exact", "--n", "3", "--p", "-1e5", "--q", "1")
    assert "p=-100000.0" in result.stderr


def _interval_value(result):
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[1].split(",")[1]


def test_precision_variable():
    args = ("exact", "--N", "4", "--kind", "interval")
    std = _interval_value(fekete(*args))
    ext = _interval_value(fekete(*args, FEKETE_PRECISION="ext"))
    assert len(std.lstrip("-").replace(".", "").lstrip("0")) <= 17
    assert len(ext.lstrip("-").replace(".", "").lstrip("0")) >= 30
    assert ext.startswith(std[:14])
    assert _interval_value(fekete(*args, "--precision", "std", FEKETE_PRECISION="ext")) == std
    assert _interval_value(fekete(*args, "--precision", "ext")) == ext
    bad = fekete(*args, FEKETE_PRECISION="foo")
    assert bad.returncode == 2 and "Traceback" not in bad.stderr


def test_commands_leave_click_argparse_and_json_unloaded():
    # the option layer imports argparse only when the command line runs,
    # json only when it writes JSON, and statistics only when verify fits
    # slopes
    code = ("import sys\n"
            "from fekete import cli\n"
            "cli.cmd_coeffs(cli.RunConfig('coeffs', 'potential', p=1.0, q=1.0, order=4))\n"
            "print(' '.join(m for m in ('click', 'argparse', 'json', 'statistics')\n"
            "               if m in sys.modules))\n")
    result = subprocess.run([sys.executable, "-c", code], env=_ENV, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
