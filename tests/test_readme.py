import ast
import contextlib
import io
import json
import re
import tokenize
from pathlib import Path

import pytest

from qrelay import cli

README = Path(__file__).parent.parent / "README.md"


def test_quick_start_prints_what_its_comments_say(capsys):
    # the README's one python block runs as written, one printed line per
    # print call; where a print's trailing comment is a Python literal, the
    # line is that literal's repr, and a prose comment is left unread
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                          re.S | re.M)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    calls = [stmt.value for stmt in ast.parse(block).body
             if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
             and getattr(stmt.value.func, "id", None) == "print"]
    assert len(printed) == len(calls)
    tokens = tokenize.generate_tokens(io.StringIO(block).readline)
    comments = {tok.start[0]: tok.string.lstrip("#").strip()
                for tok in tokens if tok.type == tokenize.COMMENT}
    checked = 0
    for call, line in zip(calls, printed):
        try:
            want = ast.literal_eval(comments.get(call.end_lineno, ""))
        except (SyntaxError, ValueError):
            continue
        assert line == repr(want)
        checked += 1
    assert checked >= 2


def _csv_cell(column: str):
    """A reader of column in the one data row of a CSV report."""
    def read(out: str) -> float:
        header, row = [line for line in out.splitlines()
                       if not line.startswith("#")]
        return float(dict(zip(header.split(","), row.split(",")))[column])
    return read


def _cutoff(n: int):
    """A reader of relay count n's cutoff in a throughput report's header."""
    def read(out: str) -> float:
        header = json.loads(out.splitlines()[0].removeprefix("# "))
        return header["parameters"]["cutoff_alpha_x"][str(n)]
    return read


def _printed(key: str):
    """A reader of the real printed as `key = value` or `key: value`."""
    def read(out: str) -> float:
        return float(re.search(rf"\b{key}(?: =|:) ([^,}}\s]+)", out)[1])
    return read


# (README text, with {cmd} where it gives the command and {value} where it
# quotes the value; the command; the quoted value; the reader of its value)
_QUOTES = {
    "snr-single-point": (
        "qrelay {cmd} # single point, S = {value}",
        "snr --n-relays 0 --alpha-x 0", "5e4", _csv_cell("s_exact_n0")),
    "optimize-position": (
        "qrelay {cmd} # analytic_positions_km: {value} ",
        "optimize --distance-km 100 --n-relays 1", "43.0685281944",
        _printed("analytic_positions_km")),
    "snr-rel-dev-tiny": (
        "`qrelay {cmd}` writes {value}.",
        "snr --pd 1e-300 --eta 0.99 --n-relays 4 --alpha-x 0.1",
        "4.1137e-300", _csv_cell("rel_dev_n4")),
    "snr-clamp-edge": (
        "`qrelay {cmd}`, 0.00055 from the clamp edge, writes {value} for",
        "snr --n-relays 673 --eta 0.7595298071364913 --pd "
        "4.8639012522493653e-20 --alpha-x 0.27450416626345975",
        "2.2529356509454828e-10", _csv_cell("rel_dev_n673")),
    "throughput-cutoff-64": (
        "(N = 64 cuts off near αx = {value},",
        "throughput --n-relays 64,1000", "291", _cutoff(64)),
    "throughput-cutoff-1000": (
        "N = 1000 near {value})",
        "throughput --n-relays 64,1000", "1740", _cutoff(1000)),
    "optimize-log-noise": (
        "`qrelay {cmd}` prints `log_noise_analytic: {value}`",
        "optimize --distance-km 1e22 --n-relays 100", "-1092.79760673",
        _printed("log_noise_analytic")),
    "sample-log-noise": (
        "`qrelay {cmd}` prints `log_p_n = {value}`",
        "sample --distance-km 1e307 --atten-per-km 10 --n-relays 0 --pd 0.2 "
        "--trials 10 --seed 1", "-0.916290731874", _printed("log_p_n")),
}


def _significant_digits(quoted: str) -> int:
    """The significant digits of a quoted number; an integer's trailing
    zeros are not (1740 has three)."""
    mantissa = re.split("[eE]", quoted.lstrip("-"))[0]
    digits = mantissa.replace(".", "").lstrip("0")
    return len(digits if "." in mantissa else digits.rstrip("0"))


@pytest.mark.parametrize("name", sorted(_QUOTES))
def test_readme_quotes_what_the_commands_write(name):
    # each quoted output, both ways: the README still quotes the value
    # beside its command, and the command's value, rounded to the digits
    # the README gives, is still that value
    text, command, quoted, read = _QUOTES[name]
    assert (text.format(cmd=command, value=quoted)
            in " ".join(README.read_text().split()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(command.split()) == 0
    value = read(out.getvalue())
    digits = _significant_digits(quoted)
    assert float(f"{value:.{digits}g}") == float(quoted), value
