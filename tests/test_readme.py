"""The README's library example and quick-start commands run as written, with the figures it quotes."""

import re
import shlex
from pathlib import Path

from dpvote import read_report, smooth_from_moves
from dpvote.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks, "README.md has no ```python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _run_commands() -> list[list[str]]:
    """The arguments of each ``dpvote run`` line of the README's sh blocks, continuations joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    return [argv[2:] for argv in map(shlex.split, lines) if argv[:2] == ["dpvote", "run"]]


def _quoted(pattern: str) -> list:
    found = re.findall(pattern, README.read_text(encoding="utf-8"))
    assert found, f"README.md no longer quotes {pattern!r}"
    return found


def _reads_as(value: float, quoted: str) -> bool:
    """Whether ``value``, rounded to as many significant digits as ``quoted`` has, is ``quoted``."""
    digits = len(quoted.split("e")[0].replace(".", "").lstrip("0"))
    return float(f"{value:.{digits - 1}e}") == float(quoted)


def test_quick_start_runs_give_the_quoted_figures(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runs = [argv for argv in _run_commands() if "--predictions" not in argv]  # that one needs files
    assert [argv[argv.index("--mechanism") + 1] for argv in runs] == ["nzc-laplace", "lnmax"]
    boosted, baseline = runs
    few = [*boosted, "--teachers", "5", "--out", "few/"]  # "the same run with --teachers 5"
    out = {}
    for name, argv in (("boosted", boosted), ("few", few), ("baseline", baseline)):
        assert main(["run", *argv]) == 0
        out[name] = capsys.readouterr().out

    simple = [float(re.search(r"privacy: paper-simple eps=(\S+)", out[name])[1])
              for name in ("boosted", "few")]
    quoted = _quoted(r"`paper-simple` (\d\.\d+e[+-]?\d+)")
    assert len(quoted) == 2 and all(map(_reads_as, simple, quoted)), (simple, quoted)
    assert "agreement=100.00%" in out["boosted"]

    # the queries at k* <= 2 are those charged at (1 + c) e^-beta
    [(count, total)] = _quoted(r"(\d+) of its (\d+) queries at k\* ≤ 2")
    for out_dir, expected in ((boosted[boosted.index("--out") + 1], 0), ("few", int(count))):
        report = read_report(out_dir)
        config = report.config
        [near] = smooth_from_moves([1], config.boost_constant, config.beta).tolist()
        assert (report.columns[5].count(near), report.query_count) == (expected, int(total))

    [agreement] = _quoted(r"agreement (\d+\.\d+)%")
    assert f"agreement={agreement}%" in out["baseline"]
