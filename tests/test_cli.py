import io
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import imred
from imred import cli, syntax
from imred.cli import main
from imred.formula import length
from imred.reduction import family_formula, level_count


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def record(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition("\t")
        out.setdefault(key, value)
    return out


def test_translate_full_report():
    code, text = run(["translate", "p1 -> p1"])
    fields = record(text)
    assert code == 0
    assert fields["input"] == "p1 -> p1"
    assert fields["input_length"] == "5"
    assert fields["fresh_var"] == "p2"
    assert fields["base_size"] == "122"
    assert fields["stable_level"] == "6"
    assert fields["input_level"] == "0"
    assert fields["bound_ok"] == "true"
    out_text = fields["output"]
    assert "p1" in out_text and "p2" not in out_text
    assert int(fields["output_length"]) < int(fields["bound_limit"])


def test_translate_positive_stage():
    code, text = run(["translate", "--stage", "positive", "<>false"])
    fields = record(text)
    assert code == 0
    assert fields["fresh_var"] == "p1"
    assert fields["body"] == "<>p1"
    assert "guard" in fields and "positive_form" in fields
    assert "output" not in fields


def test_translate_star_stage_requires_positive():
    code, _ = run(["translate", "--stage", "star", "false"])
    assert code == 2
    code, text = run(["translate", "--stage", "star", "p1 -> p1"])
    assert code == 0
    assert "output" in record(text)


def test_translate_star_stage_error_leaves_stdout_empty(capsys):
    # the input lines were once written before the positivity check
    assert run(["translate", "--stage", "star", "p1 & false"]) == (2, "")
    assert capsys.readouterr().err == \
        "error\tstage star needs a positive input formula\n"


_POSITIVE_KEYS = ["fresh_var", "diamond_guard", "box_guard",
                  "entailment_guard", "guard", "body", "positive_form",
                  "positive_length"]
_STAR_KEYS = ["base_size", "stable_level", "input_level",
              "substitution_level", "var_map", "output_length"]


@pytest.mark.parametrize("stage,keys", [
    ("positive", ["input", "input_length"] + _POSITIVE_KEYS),
    ("star", ["input", "input_length"] + _STAR_KEYS + ["output"]),
    ("full", ["input", "input_length"] + _POSITIVE_KEYS + _STAR_KEYS
     + ["bound_limit", "bound_ok", "output"]),
])
def test_translate_key_order(stage, keys):
    code, text = run(["translate", "--stage", stage, "p1"])
    assert code == 0
    assert [line.partition("\t")[0] for line in text.splitlines()] == keys


def test_translate_is_byte_deterministic():
    first = run(["translate", "<>p1 & false -> p2"])
    second = run(["translate", "<>p1 & false -> p2"])
    assert first == second


def test_translate_parse_error_exits_2():
    code, _ = run(["translate", "p1 ->"])
    assert code == 2


def test_family_subcommands():
    assert run(["family", "--ginv", "4"]) == (0, "(2,3)\n")
    assert run(["family", "--g", "2", "3"]) == (0, "4\n")
    assert run(["family", "--count", "5"]) == (0, "3969\n")
    code, text = run(["family", "A", "1", "1"])
    assert code == 0
    assert text.count("->") > 0
    code, _ = run(["family"])
    assert code == 2


def test_out_of_memory_exits_2_not_refuted(monkeypatch, capsys):
    def exhausted(phi):
        raise MemoryError

    monkeypatch.setattr(syntax, "print_formula", exhausted)
    assert run(["family", "A", "2", "1"]) == (2, "")
    assert capsys.readouterr().err == \
        "error\tout of memory: the result is too large\n"


def start_cli(*argv):
    """``imred`` in a child process with SIGINT at its default action (a
    shell that starts a job in the background would have it ignored)."""
    src = pathlib.Path(imred.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "imred.cli", *argv], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))


def test_interrupt_exits_2_with_one_line():
    proc = start_cli("refute", "p1 -> p1")  # the default budget runs for minutes
    time.sleep(1.5)
    proc.send_signal(signal.SIGINT)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err) == (2, b"", b"error\tinterrupted\n")


def test_closed_stdout_exits_2_without_traceback():
    proc = start_cli("translate", "<>p1 -> []p1")  # about 7 MB of output
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert err == b""


@pytest.mark.parametrize("argv,name", [
    (["family", "--count", "16"], "--count"),
    (["family", "--count", "30"], "--count"),
    (["family", "A", "16", "1"], "level"),
    (["audit", "--max-level", "16"], "--max-level"),
], ids=["count 16", "count 30", "level 16", "max-level 16"])
def test_family_levels_above_15_are_rejected_at_parse_time(capsys, argv, name):
    with pytest.raises(SystemExit) as stop:
        cli.build_parser().parse_args(argv)
    assert stop.value.code == 2
    assert f"error: argument {name}: must be at most 15, got" in \
        capsys.readouterr().err
    assert run(argv) == (2, "")
    assert "Traceback" not in capsys.readouterr().err


def test_family_count_prints_up_to_level_15():
    code, text = run(["family", "--count", "15"])
    assert code == 0
    assert text == f"{level_count(15)}\n"
    assert len(text) == 3686


def test_family_refuses_to_print_past_the_size_limit(monkeypatch, capsys):
    assert cli.MAX_PRINT == 5 * 10 ** 7
    assert length(family_formula("A", 10, 1)) <= cli.MAX_PRINT
    for argv, size in ((["family", "A", "11", "1"], 132_120_575),
                       (["family", "B", "15", "7"], 33_822_867_455)):
        assert run(argv) == (2, "")
        assert capsys.readouterr().err == \
            f"error\tthe formula has {size} symbols, more than the " \
            f"50000000 that family prints\n"
    # the limit itself still prints
    monkeypatch.setattr(cli, "MAX_PRINT", length(family_formula("A", 3, 1)))
    assert run(["family", "A", "3", "1"]) == \
        (0, syntax.print_formula(family_formula("A", 3, 1)) + "\n")
    assert run(["family", "A", "4", "1"])[0] == 2
    assert "more than the 2015 that family prints" in capsys.readouterr().err


def test_family_out_of_range_mentions_range():
    code, _ = run(["family", "A", "1", "9"])
    assert code == 2


def test_check_and_exit_codes(tmp_path):
    model = tmp_path / "m.model"
    model.write_text("world w\npoint w a\nval w p1 a\n", encoding="utf-8")
    code, text = run(["check", str(model), "p1 -> p1"])
    assert code == 0
    assert text == "w\ta\ttrue\n"
    code, text = run(["check", str(model), "--global", "<>p1"])
    assert (code, text) == (1, "false\n")
    code, _ = run(["check", str(model), "p1 ->"])
    assert code == 2


def test_check_long_box_run_returns_a_verdict(tmp_path):
    model = tmp_path / "loop.model"
    model.write_text("world w\npoint w a\ns w a a\n", encoding="utf-8")
    code, text = run(["check", str(model), "[]" * 3000 + "false"])
    assert (code, text) == (1, "w\ta\tfalse\n")
    code, text = run(["check", str(model), "--global",
                      "<>" * 3000 + "(p1 -> p1)"])
    assert (code, text) == (0, "true\n")


def test_deep_parentheses_return_a_verdict(tmp_path):
    model = tmp_path / "one.model"
    model.write_text("world a\npoint a x\n", encoding="utf-8")
    deep = "(" * 2000 + "p1" + ")" * 2000
    assert run(["check", str(model), deep]) == (1, "a\tx\tfalse\n")
    code, text = run(["translate", deep])
    assert (code, text) == run(["translate", "p1"])
    assert code == 0


def test_oversized_variable_indices_exit_2_without_traceback(tmp_path, capsys):
    model = tmp_path / "one.model"
    model.write_text("world a\npoint a x\n", encoding="utf-8")
    assert run(["check", str(model), "p" + "1" * 5000]) == (2, "")
    # an index int() reads is a variable the model leaves false
    assert run(["check", str(model), "p" + "1" * 20]) == (1, "a\tx\tfalse\n")
    huge = tmp_path / "huge.model"
    huge.write_text("world a\npoint a x\nval a p" + "1" * 5000 + " x\n",
                    encoding="utf-8")
    assert run(["check", str(huge), "p1"]) == (2, "")
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "line 3: variable index above 10000" in err


def test_check_of_a_missing_model_file_exits_2_with_one_line(tmp_path, capsys):
    assert run(["check", str(tmp_path / "absent.model"), "p1"]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error\t") and err.count("\n") == 1
    assert "absent.model" in err


def test_check_rejects_invalid_model(tmp_path):
    model = tmp_path / "bad.model"
    model.write_text("world u\nworld v\nle u v\npoint u a\npoint v b\n",
                     encoding="utf-8")
    code, _ = run(["check", str(model), "p1"])
    assert code == 2


def test_refute_certificate_and_exhaustion():
    code, text = run(["refute", "<>p1 -> []p1",
                      "--max-worlds", "2", "--max-points", "2"])
    assert code == 1
    assert text.endswith("refutes w0 x0\n")
    code, text = run(["refute", "p1 -> p1",
                      "--max-worlds", "2", "--max-points", "2"])
    assert code == 0
    assert text.startswith("exhausted\t")
    assert "models_tested=" in text


@pytest.mark.parametrize("value", ["0", "-5", "nan", "abc"])
def test_refute_rejects_time_caps_that_are_not_positive(monkeypatch, value):
    argv = ["refute", "p1 -> p1", "--max-candidates", "1000"]
    assert run(argv + ["--time-cap-ms", value]) == (2, "")
    # The environment is not read: only the flag caps search time.
    plain = run(argv)
    monkeypatch.setenv("IMRED_TIME_CAP_MS", value)
    assert run(argv) == plain == (
        0, "exhausted\tmodels_tested=1000\tstop=candidate-cap\t"
           "max_worlds=3\tmax_points=3\tvars=1\n")


def test_refute_time_cap_flag_stops_the_search():
    # The candidate cap bounds the run should the flag ever fail.
    code, text = run(["refute", "p1 -> p1", "--max-worlds", "4",
                      "--max-points", "4", "--vars", "2", "--time-cap-ms", "5",
                      "--max-candidates", "100000000"])
    assert code == 0
    assert "\tstop=time-cap\t" in text


def test_refute_output_is_a_parseable_certificate():
    from imred.syntax import parse_certificate, parse_formula
    from imred.semantics import eval_formula_plain

    code, text = run(["refute", "<>p1 -> []p1",
                      "--max-worlds", "2", "--max-points", "2"])
    assert code == 1
    model, w, x = parse_certificate(text)
    assert not eval_formula_plain(model, w, x, parse_formula("<>p1 -> []p1"))


def test_a_certificate_at_the_variable_cap_parses_back():
    from imred.syntax import parse_certificate, parse_formula
    from imred.semantics import eval_formula_plain

    code, text = run(["refute", "p10000 -> false"])
    assert code == 1
    model, w, x = parse_certificate(text)
    assert model.nvars == 10_000
    assert not eval_formula_plain(model, w, x, parse_formula("p10000 -> false"))


def test_refute_mipc_flag():
    code, text = run(["refute", "--mipc", "<>p1 -> []p1",
                      "--max-worlds", "1", "--max-points", "2"])
    assert code == 1
    assert "kind mipc" in text


def test_audit_subsets_pass():
    code, text = run(["audit", "--spiral", "500"])
    assert code == 0
    assert "spiral\tpass" in text
    code, text = run(["audit", "--growth-cert"])
    assert code == 0
    assert "growth-cert\tpass\tk0=6" in text
    code, text = run(["audit", "--family-sizes", "--max-level", "3"])
    assert code == 0
    assert "family-sizes\tpass" in text
    code, text = run(["audit", "--sizes", "--corpus", "5",
                      "--max-length", "120", "--seed", "3"])
    assert code == 0
    assert "sizes\tpass" in text


@pytest.mark.parametrize("flags", [
    ["--spiral", "0"], ["--growth-cert", "--spiral", "0"], ["--spiral", "-5"],
    ["--corpus", "0"], ["--corpus", "-3"], ["--per-level", "0"],
    ["--max-level", "-1"], ["--max-length", "3"],
], ids=" ".join)
def test_audit_rejects_flags_that_would_check_nothing(capsys, flags):
    assert run(["audit"] + flags) == (2, "")
    err = capsys.readouterr().err
    assert f"error: argument {flags[-2]}: must be at least" in err
    assert "Traceback" not in err


def test_audit_is_byte_deterministic():
    argv = ["audit", "--sizes", "--corpus", "4", "--max-length", "80",
            "--seed", "11"]
    assert run(argv) == run(argv)
