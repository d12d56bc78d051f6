"""Byte-level regression check of the command line on the fixture corpus.

tests/golden/ holds one symbol document per make_corpus() fixture plus an
anglesExact-tagged rotation, the stdout of each command in COMMANDS on
each document, and the exit codes in exit_codes.json.  The test runs the
same commands in-process and compares stdout bytes and exit codes.

Regenerate the files (only when an output change is intended) with

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

from fockop.cli import canonical_json, main, symbol_document
from conftest import make_corpus

GOLDEN = pathlib.Path(__file__).parent / "golden"

# command name -> argv after the document path
COMMANDS = {
    "analyze": ["analyze", "{doc}"],
    "analyze-text": ["analyze", "{doc}", "--text"],
    "spectrum-verify": ["spectrum", "{doc}", "--verify"],
    "cyclic": ["cyclic", "{doc}"],
    "truncate": ["truncate", "{doc}"],
}

TAGGED = "rotation_i_tagged"


def documents():
    """name -> symbol document text for every golden input."""
    docs = {
        name: canonical_json(symbol_document(sym))
        for name, sym in make_corpus().items()
    }
    tagged = json.loads(docs["rotation_i"])
    tagged["anglesExact"] = [{"num": 1, "den": 2}]
    docs[TAGGED] = canonical_json(tagged)
    return docs


def run_command(argv):
    """Exit code and stdout of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_cli_outputs_match_golden():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    names = sorted(p.name[: -len(".sym.json")] for p in GOLDEN.glob("*.sym.json"))
    assert set(make_corpus()) | {TAGGED} <= set(names)
    mismatched = []
    for name in names:
        doc = str(GOLDEN / f"{name}.sym.json")
        for cmd, template in COMMANDS.items():
            key = f"{name}.{cmd}"
            code, out = run_command([a.format(doc=doc) for a in template])
            want = (GOLDEN / f"{key}.out").read_bytes()
            if code != codes[key] or out.encode("utf-8") != want:
                mismatched.append(key)
    assert not mismatched, f"outputs differ from tests/golden: {mismatched}"


def write_golden():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, text in documents().items():
        doc = GOLDEN / f"{name}.sym.json"
        doc.write_text(text + "\n", encoding="utf-8")
        for cmd, template in COMMANDS.items():
            key = f"{name}.{cmd}"
            codes[key], out = run_command([a.format(doc=str(doc)) for a in template])
            (GOLDEN / f"{key}.out").write_bytes(out.encode("utf-8"))
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    write_golden()
