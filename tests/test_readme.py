"""README's library sketch runs as written, on the file its CLI section generates."""

import re
from pathlib import Path

from click.testing import CliRunner

from isocut import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    gen = CliRunner().invoke(cli.main, ["gen", "--model", "planted", "--n", "24", "--m", "40", "--seed", "7"])
    assert gen.exit_code == 0, gen.stderr
    (tmp_path / "demo.hgr").write_text(gen.stdout)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 1
