"""CLI surface: exit codes, artifacts, reproducibility."""

import gc
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from polarkit.cli import main, resolve_channel, resolve_kernel
from polarkit.fqlin import FqMatrix, kron_power
from polarkit.polarlab import leading_exponents

from golden.record import stdout_name


def run_cli(args):
    return main(args)


def test_analyze_kernel_arikan(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli(["analyze-kernel", "--kernel", "arikan", "--q", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["mixing"] is True
    assert doc["result"]["exponents"] == [1, 2]
    assert doc["spec"]["subcommand"] == "analyze-kernel"
    assert "mixing=True" in capsys.readouterr().err


@pytest.mark.parametrize("kernel", ["arikan", "hamming7"])
def test_analyze_kernel_json_keeps_only_what_is_read(kernel, capsys):
    assert run_cli(["analyze-kernel", "--kernel", kernel]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert "metadata" not in result
    assert set(result["witness"]) == {"target", "perm", "T", "alpha"}


def test_analyze_kernel_hamming7(tmp_path):
    out = tmp_path / "h7.json"
    assert run_cli(["analyze-kernel", "--kernel", "hamming7", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["mixing"] is True
    assert doc["result"]["distance"] == 3
    assert all(d >= 2 for d in doc["result"]["exponents"][3:])


def test_hamming7_rejects_non_binary_q(capsys):
    assert run_cli(["analyze-kernel", "--kernel", "hamming7", "--q", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: the hamming7 kernel is binary; got --q 3" in captured.err


def test_polarize_csv(tmp_path):
    out = tmp_path / "levels.csv"
    code = run_cli([
        "polarize", "--kernel", "arikan", "--z", "0.5", "--t", "12",
        "--t-min", "6", "--lambda", "0.45", "--gamma", "0.8", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# polarkit")
    assert lines[2] == "t,fraction_exp,fraction_strong,rate_at_threshold"
    rows = [line.split(",") for line in lines[3:]]
    assert [r[0] for r in rows] == [str(t) for t in range(6, 13)]
    fractions = [float(r[1]) for r in rows]
    assert fractions[-1] <= fractions[2]  # decaying window mass


def test_polarize_past_an_overflowing_low_edge(capsys):
    # 2^(lambda t) = 2^1100 overflows a double; it used to exit 1 with an OverflowError
    assert run_cli(["polarize", "--z", "0.5", "--t", "11", "--lambda", "100"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "11,0.560546875,0.12109375,0.2919921875"


GOLDEN = Path(__file__).parent / "golden"
# one directory per command, each with its cases.json
GOLDEN_CASES = {
    d.name: json.loads((d / "cases.json").read_text())
    for d in sorted(GOLDEN.iterdir()) if (d / "cases.json").is_file()
}


def assert_golden_output(command, name, capsys):
    # recorded by tests/golden/record.py; versions.txt names the Python and
    # numpy that produced them
    directory = GOLDEN / command
    assert run_cli(GOLDEN_CASES[command][name]) == 0
    out, err = capsys.readouterr()
    assert out.encode() == (directory / stdout_name(directory, name)).read_bytes()
    assert err.encode() == (directory / f"{name}.stderr").read_bytes()


def test_every_golden_directory_is_compared():
    assert set(GOLDEN_CASES) == {"polarize", "simulate", "construct", "exponents", "analyze-kernel"}


@pytest.mark.parametrize("name", list(GOLDEN_CASES["polarize"]))
def test_polarize_matches_its_golden_output(name, capsys):
    assert_golden_output("polarize", name, capsys)


@pytest.mark.parametrize("name", list(GOLDEN_CASES["simulate"]))
def test_simulate_matches_its_golden_output(name, capsys):
    # trial counts of 1023, 1025, 1100, 2049 and 2100 end chunks and blocks
    # of words short
    assert_golden_output("simulate", name, capsys)


@pytest.mark.parametrize("name", list(GOLDEN_CASES["construct"]))
def test_construct_matches_its_golden_output(name, capsys):
    assert_golden_output("construct", name, capsys)


@pytest.mark.parametrize("name", list(GOLDEN_CASES["exponents"]))
def test_exponents_matches_its_golden_output(name, capsys):
    assert_golden_output("exponents", name, capsys)


@pytest.mark.parametrize("name", list(GOLDEN_CASES["analyze-kernel"]))
def test_analyze_kernel_matches_its_golden_output(name, capsys):
    # hamming7 takes its default 3-column block; the inline case passes a
    # kernel literal to --kernel
    assert_golden_output("analyze-kernel", name, capsys)


def test_exponents_json(tmp_path):
    out = tmp_path / "exp.json"
    assert run_cli(["exponents", "--kernel", "arikan", "--deltas", "1e-2,1e-3,1e-4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    exps = doc["result"]["per_index_exponents"]
    assert abs(exps[0] - 1.0) < 0.05 and abs(exps[1] - 2.0) < 0.05
    assert doc["result"]["profiles"][0]["h"]
    assert doc["result"]["suction"]["eta"] == 0.5


def test_exponents_stdout_is_parseable_json(capsys):
    assert run_cli(["exponents", "--kernel", "arikan"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["spec"]["deltas"] == "1e-2,1e-3,1e-4"
    assert len(doc["result"]["per_index_exponents"]) == 2
    assert captured.err.startswith("exponents: eta=0.5")


def test_construct_json(tmp_path):
    out = tmp_path / "code.json"
    assert run_cli([
        "construct", "--kernel", "arikan", "--channel", "erasure:0.5",
        "--t", "1", "--rate", "0.5", "--seed", "1", "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["frozen"] == [0]


def test_simulate_reproducible(tmp_path):
    args = [
        "simulate", "--kernel", "arikan", "--channel", "erasure:0.3",
        "--t", "6", "--rate", "0.6", "--trials", "500", "--seed", "7",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    different = tmp_path / "c.csv"
    assert run_cli(args[:-1] + ["8", "--out", str(different)]) == 0
    assert a.read_bytes() != different.read_bytes()


def test_simulate_has_no_workers_option(tmp_path, capsys):
    args = [
        "simulate", "--kernel", "arikan", "--channel", "erasure:0.3",
        "--t", "4", "--rate", "0.5", "--trials", "10", "--seed", "1",
    ]
    assert run_cli(args + ["--workers", "2"]) == 2
    assert "--workers" in capsys.readouterr().err
    out = tmp_path / "sim.csv"
    assert run_cli(args + ["--out", str(out)]) == 0
    spec = json.loads(out.read_text().splitlines()[1].removeprefix("# spec: "))
    assert "workers" not in spec and spec["trials"] == 10 and spec["seed"] == 1


def test_simulate_csv_columns(tmp_path):
    out = tmp_path / "sim.csv"
    assert run_cli([
        "simulate", "--kernel", "arikan", "--channel", "erasure:0.3",
        "--t", "5", "--rate", "0.5", "--trials", "300", "--seed", "3", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "N,rate,capacity,gap,failures,trials,fer,ci_low,ci_high"
    row = lines[3].split(",")
    assert row[0] == "32" and row[5] == "300"


def test_distance_subcommand(tmp_path):
    out = tmp_path / "d.json"
    matrix = json.dumps(FqMatrix(2, [[1], [1]]).to_dict())
    assert run_cli(["distance", "--kernel", matrix, "--ml-eps", "0.1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["distance"] == 2
    assert abs(doc["result"]["ml"]["failure"] - 0.19) < 1e-12
    assert "matrix" not in doc["spec"] and doc["spec"]["kernel"] == matrix


def test_extract_columns_subcommand(tmp_path):
    out = tmp_path / "x.json"
    assert run_cli(["extract-columns", "--kernel", "arikan", "--t0", "2", "--s", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["columns"] == [0] and doc["result"]["distance"] == 2


def test_unknown_subcommand_exit_2(capsys):
    assert run_cli(["no-such-command"]) == 2
    capsys.readouterr()


def test_validation_error_exit_2(capsys):
    # erasure probability outside [0, 1]
    assert run_cli([
        "simulate", "--kernel", "arikan", "--channel", "erasure:1.5",
        "--t", "4", "--rate", "0.5", "--trials", "10", "--seed", "1",
    ]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("args", [
    # a NaN table passes the sign and row-sum checks unless finiteness is checked
    ["simulate", "--channel", '{"kind": "table", "q": 2, "w": [[NaN, NaN], [NaN, NaN]]}',
     "--t", "2", "--rate", "0.5", "--trials", "10", "--seed", "1"],
    ["construct", "--channel", "qsc:0.1", "--t", "2", "--rate", "0.5", "--seed", "1",
     "--genie-trials", "0"],
    ["construct", "--channel", "erasure:0.3", "--t", "-1", "--rate", "0.5", "--seed", "1"],
    ["polarize", "--z", "0.5", "--t", "-2"],
    # a negative start would index the level list from its end
    ["polarize", "--z", "0.5", "--t", "3", "--t-min", "-1"],
    ["polarize", "--z", "0.5", "--t", "3", "--t-min", "-4"],
    ["analyze-kernel", "--block-cols", "5"],
    ["distance", "--cols", "9"],
    ["distance", "--cols", "-1"],
    # NaN fails every comparison, so unguarded it froze nothing, reported
    # rho_hat=nan or eta=0, and exited 0
    ["construct", "--channel", "erasure:0.3", "--t", "3", "--threshold", "nan", "--seed", "1"],
    ["polarize", "--z", "0.5", "--t", "3", "--lambda", "nan"],
    ["polarize", "--z", "0.5", "--t", "3", "--threshold", "nan"],
    ["exponents", "--b-min", "nan"],
    # a grid of one repeated value made a singular fit and exited 0
    ["exponents", "--deltas=1e-2,1e-2,1e-2"],
    # no --matrix: --kernel takes the same inline JSON
    ["distance", "--matrix", '{"q": 2, "rows": 3, "cols": 1, "entries": [1, 1, 0]}'],
    # a binary kernel on F_3 channels
    ["construct", "--channel", '{"kind": "erasure", "q": 3, "param": 0.1}', "--t", "3", "--rate", "0.5", "--seed", "1"],
    ["construct", "--channel", '{"kind": "qsc", "q": 3, "param": 0.1}', "--t", "3", "--rate", "0.5", "--seed", "1"],
    ["simulate", "--channel", '{"kind": "erasure", "q": 3, "param": 0.1}',
     "--t", "3", "--rate", "0.5", "--trials", "10", "--seed", "1"],
    ["simulate", "--channel", '{"kind": "qsc", "q": 3, "param": 0.1}',
     "--t", "3", "--rate", "0.5", "--trials", "10", "--seed", "1"],
], ids=["nan-table", "genie-trials-0", "construct-t-neg", "polarize-t-neg",
        "polarize-t-min-neg1", "polarize-t-min-neg4",
        "block-cols-too-wide", "cols-too-wide", "cols-negative",
        "construct-threshold-nan", "polarize-lambda-nan", "polarize-threshold-nan",
        "exponents-b-min-nan", "exponents-repeated-deltas", "distance-matrix", "construct-erasure-f3", "construct-qsc-f3",
        "simulate-erasure-f3", "simulate-qsc-f3"])
def test_out_of_range_arguments_exit_2(args, capsys):
    assert run_cli(args) == 2
    # the program's own errors are one "error: " line; argparse prints its
    # usage before its "polarkit: error: " line
    assert re.fullmatch(r"(usage: .*\npolarkit: )?error: [^\n]*\n", capsys.readouterr().err, re.S)


@pytest.mark.parametrize("literal, message", [
    ('{"q": 2, "rows": 2, "cols": 2, "entries": [1, 0, 1.5, 1]}', "matrix entries must be integers"),
    ('{"q": 2.7, "rows": 2, "cols": 2, "entries": [1, 0, 1, 1]}', "modulus must be an integer"),
    # these two used to escape as a TypeError and a KeyError, exit 1
    ('{"q": 2, "rows": 2.0, "cols": 2, "entries": [1, 0, 1, 1]}',
     "matrix literal rows and cols must be nonnegative integers; got (2.0, 2)"),
    ('{"q": 2, "rows": 2, "cols": 2}', 'a matrix literal needs the keys "q", "rows", "cols" and "entries"'),
], ids=["fractional-entry", "fractional-q", "fractional-rows", "missing-entries"])
def test_analyze_kernel_rejects_a_non_integer_literal_exit_2(literal, message, capsys):
    # the first two used to be truncated and analysed as arikan
    assert run_cli(["analyze-kernel", "--kernel", literal]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("literal, message", [
    ('{"kind": "qsc"}', "a channel literal needs \"q\""),
    ('{"kind": "table", "q": 2}', "a channel literal needs \"q\""),
    ('{"kind": "bogus", "q": 2, "w": [[1, 0], [0, 1]]}', "a channel literal needs \"q\""),
    ('[{"kind": "qsc", "q": 2, "param": 0.1}]', "a channel literal needs \"q\""),
    ('{"kind": "qsc", "q": 2, "param": [0.1]}', "channel param must be a real number; got [0.1]"),
    ('{"kind": "erasure", "q": 2, "param": null}', "channel param must be a real number; got None"),
], ids=["qsc-no-q", "table-no-w", "unknown-kind", "list", "list-param", "null-param"])
def test_malformed_channel_literal_exit_2(literal, message, tmp_path, capsys):
    # these used to escape as a KeyError, an AttributeError or a TypeError, exit 1
    path = tmp_path / "channel.json"
    path.write_text(literal)
    for spec in (literal, str(path)) if literal.startswith("{") else (str(path),):
        args = ["simulate", "--channel", spec, "--t", "2", "--rate", "0.5", "--trials", "10", "--seed", "1"]
        assert run_cli(args) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--kernel", "--channel"])
def test_unreadable_input_file_exit_2(option, tmp_path, capsys):
    # a directory where a JSON file belongs used to exit 1 with IsADirectoryError
    directory = tmp_path / "input.json"
    directory.mkdir()
    args = ["simulate", "--channel", "erasure:0.3", "--t", "2", "--rate", "0.5", "--trials", "10", "--seed", "1"]
    assert run_cli(args + [option, str(directory)]) == 2
    assert "Is a directory" in capsys.readouterr().err


def _reed_solomon(q):
    # M[i][l] = alpha_l^(k-1-i) with alpha_l = 2^l, k = q - 1; 2 is a
    # primitive root mod 11
    k = q - 1
    return FqMatrix(q, [[pow(2, l * (k - 1 - i), q) for l in range(k)] for i in range(k)])


@pytest.mark.parametrize("kernel", [kron_power(FqMatrix(2, [[1, 0], [1, 1]]), 4), _reed_solomon(11)],
                         ids=["arikan-4", "rs-f11"])
def test_exponents_reach_large_kernels(kernel, monkeypatch, capsys):
    # 4^16 and 22^10 states were refused; at the default budgets the pattern
    # counts take 2^16 and 2^10 patterns
    monkeypatch.delenv("POLARLAB_BUDGET", raising=False)
    assert run_cli(["exponents", "--kernel", json.dumps(kernel.to_dict())]) == 0
    fitted = json.loads(capsys.readouterr().out)["result"]["per_index_exponents"]
    assert np.max(np.abs(np.array(fitted) - leading_exponents(kernel).d)) <= 0.05


def test_construct_rate_checked_before_estimation(monkeypatch, capsys):
    from polarkit import codec

    def never(*args, **kwargs):
        pytest.fail("reliability estimation ran on an invalid --rate")

    monkeypatch.setattr(codec, "genie_error_rates", never)
    monkeypatch.setattr(codec, "evolve_tree", never)
    for channel in ("qsc:0.05", "erasure:0.3"):
        for rate in ("1.5", "-0.1", "nan"):
            args = ["construct", "--channel", channel, "--t", "11", "--rate", rate, "--seed", "1"]
            assert run_cli(args) == 2
            assert capsys.readouterr().err.startswith("error: rate must lie in [0, 1]")


@pytest.mark.parametrize("value", ["1e7", "0", "-5", "many"])
def test_malformed_budget_environment_exit_2(value, monkeypatch, capsys):
    monkeypatch.setenv("POLARLAB_BUDGET", value)
    assert run_cli(["analyze-kernel", "--kernel", "arikan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: POLARLAB_BUDGET must be a positive integer; got {value!r}\n"


def test_simulate_refuses_a_kernel_node_table_over_budget(monkeypatch, capsys):
    # an SC node over this kernel would weigh all 11^8 child words
    monkeypatch.delenv("POLARLAB_BUDGET", raising=False)
    kernel = json.dumps(FqMatrix(11, [[int(j <= i) for j in range(8)] for i in range(8)]).to_dict())
    args = ["simulate", "--kernel", kernel, "--channel", "erasure:0.3", "--t", "1", "--rate", "0.5",
            "--trials", "10", "--seed", "1"]
    assert run_cli(args) == 2
    assert capsys.readouterr().err == "error: kernel node table budget exceeded: 214358881 > 1000000\n"


@pytest.mark.parametrize("channel, entries", [("erasure:0.3", 65537 * 65538), ("qsc:0.1", 65537 * 65537)])
def test_simulate_refuses_a_channel_table_over_budget(channel, entries, monkeypatch, capsys):
    # the (q, q + 1) or (q, q) table over F_65537 would take 32 GiB
    monkeypatch.delenv("POLARLAB_BUDGET", raising=False)
    args = ["simulate", "--kernel", "arikan", "--q", "65537", "--channel", channel, "--t", "2",
            "--rate", "0.5", "--trials", "10", "--seed", "1"]
    assert run_cli(args) == 2
    assert capsys.readouterr().err == f"error: channel table budget exceeded: {entries} > 10000000\n"


def test_simulate_refuses_node_weights_over_budget(monkeypatch, capsys):
    # one word of arikan over F_997 at t=4 weighs 997^2 * 8 floats at the top
    # node; the whole recursion used to be killed for want of memory
    monkeypatch.delenv("POLARLAB_BUDGET", raising=False)
    args = ["simulate", "--kernel", "arikan", "--q", "997", "--channel", "erasure:0.3", "--t", "4",
            "--rate", "0.5", "--trials", "10", "--seed", "1"]
    assert run_cli(args) == 2
    assert capsys.readouterr().err == f"error: SC node weights budget exceeded: {997**2 * 8} > {2**22}\n"


def test_exponents_b_min_checked_before_computation(monkeypatch, capsys):
    from polarkit import entropy

    def never(*args, **kwargs):
        pytest.fail("polarization_exponents ran on an invalid --b-min")

    monkeypatch.setattr(entropy, "polarization_exponents", never)
    assert run_cli(["exponents", "--b-min", "nan"]) == 2
    assert capsys.readouterr().err.startswith("error: --b-min must be finite")


def test_kernel_resolution_variants(tmp_path):
    inline = json.dumps(FqMatrix(3, [[1, 0], [2, 1]]).to_dict())
    m = resolve_kernel(inline, 3)
    assert m.arr.tolist() == [[1, 0], [2, 1]]
    path = tmp_path / "kernel.json"
    path.write_text(inline)
    assert resolve_kernel(str(path), 3) == m
    assert resolve_kernel("arikan2", 2).rows == 4


def test_channel_resolution_variants():
    c = resolve_channel("qsc:0.2", 3)
    assert c.kind == "additive" and c.param == 0.2
    c2 = resolve_channel(json.dumps({"kind": "erasure", "q": 2, "param": 0.4}), 2)
    assert c2.kind == "erasure"
    with pytest.raises(ValueError):
        resolve_channel("weird:1", 2)


def test_channel_from_json_file_closes_its_handle(tmp_path):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps({"kind": "qsc", "q": 3, "param": 0.1}))
    # recorded, not raised: a ResourceWarning turned into an error inside a
    # finalizer is unraisable and would only be reported, never fail the test
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        c = resolve_channel(str(path), 3)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert c.kind == "additive" and c.param == 0.1


def test_hamming7_builtin_is_built_once():
    assert resolve_kernel("hamming7", 2) is resolve_kernel("hamming7", 2)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "polarkit.cli", "--version"],
        capture_output=True, text=True,
        # the child finds polarkit where this process does, however pytest
        # was started
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    assert "polarkit" in proc.stdout


def test_table_channel_json():
    w = [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]
    c = resolve_channel(json.dumps({"kind": "table", "q": 3, "w": w}), 3)
    assert c.kind == "general" and c.outputs == 3
