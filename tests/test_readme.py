"""The README's examples run against the current API and keep their bytes."""

import hashlib
import re
import shlex
from pathlib import Path

from butlercad.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# sha256 prefixes of what the README's command-line examples write; every
# artifact has kept these bytes since they were first recorded
README_ARTIFACTS = {
    "report.json": "47f18ba0e0dcf5d1",
    "butler_ideal.s8p": "c5d688b5c81c9a67",
    "butler_ideal_excitations.csv": "37b025f2a166bd18",
    "butler_ideal_beams.csv": "e45b7581c83dac9c",
    "butler_circuit.s8p": "6892824a7685823a",
    "butler_circuit_excitations.csv": "ddafdaef559a772c",
    "butler_circuit_beams.csv": "e45b7581c83dac9c",
    "beam_1R.csv": "f755da40f576e859",
    "conv_ideal.s8p": "722f2eea6109cde6",
    "conv_circuit.s8p": "2cf6399391d54b1f",
}
DESIGN_STDOUT = "95118ca14a0eff15"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_examples_write_their_recorded_bytes(tmp_path, monkeypatch, capsys):
    shell = "".join(re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL))
    commands = [
        shlex.split(line)[1:]
        for line in shell.replace("\\\n", " ").splitlines()
        if line.startswith("butlercad ")
    ]
    assert [argv[0] for argv in commands] == [
        "design", "butler", "butler", "pattern", "touchstone", "touchstone"
    ]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BUTLERCAD_OUTDIR", raising=False)
    for argv in commands:
        assert main(argv) == 0
        out = capsys.readouterr().out
        if argv[0] == "design":
            assert _digest(out.encode()) == DESIGN_STDOUT
    assert {p.name: _digest(p.read_bytes()) for p in tmp_path.iterdir()} == README_ARTIFACTS
