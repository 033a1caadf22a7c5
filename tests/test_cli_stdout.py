"""CLI output pinned byte for byte: each invocation's exit code and the
SHA-256 digests (first 16 hex digits) of its stdout and stderr.

A change to the search, the translation or the printers that moves one
byte of a verdict, certificate, count or error message fails here, so a
refactor that must keep the CLI's output is checked by running this
test.  Record a new digest only for an intended change of output.
"""

import hashlib
import io

from imred.cli import main

MODEL = ("world u\nworld v\nle u v\npoint u a\npoint v a\npoint v b\n"
         "s u a a\ns v a a\ns v a b\nval u p1 a\nval v p1 a\nval v p2 b\n")
# model files by the placeholder that names them in PINNED: one that does
# not parse, and one that parses but breaks point-set monotonicity
MODELS = {"model": MODEL, "malformed": "world u\npoint u a\nbogus u\n",
          "invalid": "world u\nworld v\nle u v\npoint u a\npoint v b\n"}

SMALL = ["--max-worlds", "2", "--max-points", "2"]
EMPTY = "e3b0c44298fc1c14"  # the digest of no output

PINNED = [
    # refute: FS and MIPC; refuted, capped and exhausted
    (["refute", "<>p1 -> []p1"], 1, "35996ac85da30cb0", EMPTY),
    (["refute", "--mipc", "<>p1 -> []p1"], 1, "062d67eaf56f1d4f", EMPTY),
    (["refute", "--max-candidates", "5000", "p1 -> p1"], 0,
     "3929b3a8890ca088", EMPTY),
    (["refute", *SMALL, "p1 -> p1"], 0, "7eba69d1c1b33969", EMPTY),
    (["refute", "--mipc", *SMALL, "--vars", "2", "p1 -> p1"], 0,
     "9c8d8c41793d7bfa", EMPTY),
    # MIPC frames of 512 valuations, two passes each: a cap across the
    # first such boundary, and a refutation in a frame's second pass
    (["refute", "--mipc", *SMALL, "--vars", "3", "--max-candidates", "483",
      "p3 -> p3"], 0, "073eec904a48f2a0", EMPTY),
    (["refute", "--mipc", *SMALL, "[](((p3 -> p1) -> p1 -> p2) | (<>p1 -> p1))"],
     1, "09cbd05aed3cc538", EMPTY),
    # LATE_REFUTATIONS of tests/test_search.py
    (["refute", *SMALL, "[](p2 | p1 | []p2 | ([]p1 -> p1))"], 1,
     "b9ddd237e3f55eba", EMPTY),
    (["refute", *SMALL, "p1 | (p1 -> <>(p1 -> p1))"], 1, "58e8c7aa7e972775",
     EMPTY),
    # PACKED_REFUTATIONS of tests/test_search.py, and the second one with
    # a cap one candidate short of its countermodel
    (["refute", *SMALL, "[]((p1 -> []p1) | p1)"], 1, "6bf3d06c34ad7c20", EMPTY),
    (["refute", "--max-worlds", "3", "--max-points", "2",
      "p1 | (<>p1 & p1 -> <>[]p1)"], 1, "e4b69e3612d5957e", EMPTY),
    (["refute", "--max-worlds", "3", "--max-points", "2", "--max-candidates",
      "1456", "p1 | (<>p1 & p1 -> <>[]p1)"], 0, "d326d79a1c1ca4c2", EMPTY),
    (["refute", "--max-worlds", "2", "--max-points", "3", "<><>p1 -> p1 | <>p1"],
     1, "d523adb958120093", EMPTY),
    # check, translate
    (["check", "{model}", "<>p1 -> [](p1 | p2)"], 0, "a329dbfacfc49ca0", EMPTY),
    (["check", "{model}", "--global", "p1 -> <>p2"], 1, "2ed27c1421e6928d",
     EMPTY),
    (["translate", "--stage", "positive", "<>p1 -> []p2 | false"], 0,
     "e2cb4666ee72ad6d", EMPTY),
    # family in every form; --base-var 0 fails after the index range check
    (["family", "A", "3", "5"], 0, "dc8cf50e27bdb521", EMPTY),
    (["family", "B", "2", "2", "--base-var", "4"], 0, "7d11fbd1a205527f", EMPTY),
    (["family", "A", "2", "3", "--base-var", "0"], 2, EMPTY, "510f941b865c6c17"),
    (["family", "A", "1", "9", "--base-var", "0"], 2, EMPTY, "21590b9c7dd64933"),
    (["family", "--g", "3", "4"], 0, "06e9d52c1720fca4", EMPTY),
    (["family", "--ginv", "17"], 0, "f13121cac47f9363", EMPTY),
    (["family", "--count", "5"], 0, "6fad79c0e0f38d46", EMPTY),
    (["audit", "--spiral", "100", "--growth-cert"], 0, "0a0abaf02da32793",
     EMPTY),
    # errors: a formula that does not parse, model files that do not parse
    # or validate, a formula over the variable bound, a bound below 1
    (["translate", "p1 &"], 2, EMPTY, "3b21d9604af67e87"),
    (["check", "{model}", "p1 &"], 2, EMPTY, "3b21d9604af67e87"),
    (["refute", "p1 &"], 2, EMPTY, "3b21d9604af67e87"),
    (["check", "{malformed}", "p1"], 2, EMPTY, "8ab8a32e2214aacc"),
    (["check", "{invalid}", "p1"], 2, EMPTY, "2e80e4d71f688242"),
    (["refute", "--vars", "1", "p1 & p2"], 2, EMPTY, "019ecb8d791528b4"),
    (["refute", "--max-worlds", "0", "p1"], 2, EMPTY, "7d06137392304bf2"),
]


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_cli_output_is_pinned(tmp_path, capsys):
    paths = {}
    for name, text in MODELS.items():
        paths[name] = tmp_path / f"{name}.model"
        paths[name].write_text(text, encoding="utf-8")
    got, want = [], []
    for argv, code, stdout, stderr in PINNED:
        out = io.StringIO()
        exit_code = main([arg.format(**paths) for arg in argv], out)
        err = capsys.readouterr().err
        got.append((argv, exit_code, digest(out.getvalue()), digest(err)))
        want.append((argv, code, stdout, stderr))
    assert got == want
