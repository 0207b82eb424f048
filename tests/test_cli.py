import argparse
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import posinv
from posinv import Model, load_weights
from posinv.cli import build_parser, comparator_counts_per_token, main

PROMPT = {"prefix": "SYS: ", "documents": ["alpha doc", "bravo doc", "chrly"], "suffix": " Q?"}
SCAN = {
    "prefix": "SYS: ",
    "needle": "the answer is 42",
    "gold": "42",
    "distractors": ["nothing here", "irrelevant", "also empty"],
    "suffix": " Q?",
    "metric": "gold_token_logprob",
}


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("model")
    w, c = str(d / "w.bin"), str(d / "c.txt")
    assert main(["init", "--model", w, "--config", c, "--seed", "7",
                 "--n-layers", "1", "--n-heads", "2", "--n-kv-heads", "1",
                 "--d-head", "16", "--d-ff", "64"]) == 0
    return w, c


@pytest.fixture()
def prompt_file(tmp_path):
    path = tmp_path / "prompt.json"
    path.write_text(json.dumps(PROMPT))
    return str(path)


def run_cli(args):
    return main(args)


class TestRun:
    def test_determinism(self, model_files, prompt_file, capsys):
        w, c = model_files
        args = ["run", "--model", w, "--config", c, "--prompt", prompt_file,
                "--mode", "pine", "--max-new-tokens", "6"]
        assert run_cli(args) == 0
        first = capsys.readouterr().out
        assert run_cli(args) == 0
        assert capsys.readouterr().out == first

    def test_k1_pine_equals_vanilla(self, model_files, tmp_path, capsys):
        w, c = model_files
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"prefix": "S", "documents": ["one doc"], "suffix": "Q"}))
        outs = {}
        for mode in ("pine", "vanilla"):
            assert run_cli(["run", "--model", w, "--config", c, "--prompt", str(p),
                            "--mode", mode, "--max-new-tokens", "8"]) == 0
            outs[mode] = capsys.readouterr().out
        assert outs["pine"] == outs["vanilla"]

    def test_permuted_prompt_same_text(self, model_files, tmp_path, capsys):
        w, c = model_files
        outs = []
        for docs in (PROMPT["documents"], PROMPT["documents"][::-1]):
            p = tmp_path / "p.json"
            p.write_text(json.dumps({**PROMPT, "documents": docs}))
            assert run_cli(["run", "--model", w, "--config", c, "--prompt", str(p),
                            "--mode", "pine", "--max-new-tokens", "8"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_report_written(self, model_files, prompt_file, tmp_path, capsys):
        w, c = model_files
        report = tmp_path / "report.json"
        assert run_cli(["run", "--model", w, "--config", c, "--prompt", prompt_file,
                        "--mode", "pine", "--max-new-tokens", "2",
                        "--report-out", str(report)]) == 0
        capsys.readouterr()
        data = json.loads(report.read_text())
        assert data["artifact_version"] == "1"
        assert "config_hash" in data
        assert data["results"]["mode"] == "pine"

    def test_report_records_the_argv_given_to_main(self, model_files, prompt_file, tmp_path,
                                                    capsys, monkeypatch):
        # The command is main's argv, not the host process's arguments.
        monkeypatch.setattr(sys, "argv", ["host", "unrelated", "--flag"])
        w, c = model_files
        argv = ["run", "--model", w, "--config", c, "--prompt", prompt_file, "--mode", "pine",
                "--max-new-tokens", "1", "--report-out", str(tmp_path / "report.json")]
        assert run_cli(argv) == 0
        capsys.readouterr()
        assert json.loads((tmp_path / "report.json").read_text())["command"] == " ".join(argv)


class TestCompare:
    def test_lists_all_modes(self, model_files, prompt_file, capsys):
        w, c = model_files
        assert run_cli(["compare", "--model", w, "--config", c, "--prompt", prompt_file,
                        "--modes", "vanilla,pine,pcw", "--max-new-tokens", "3"]) == 0
        out = capsys.readouterr().out
        for mode in ("vanilla", "pine", "pcw"):
            assert mode in out


    def test_unknown_mode_usage_error(self, model_files, prompt_file, capsys):
        w, c = model_files
        code = run_cli(["compare", "--model", w, "--config", c, "--prompt", prompt_file,
                        "--modes", "vanilla,bogus", "--max-new-tokens", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "bogus" in err


class TestInvariance:
    def test_expected_behavior_exit_zero(self, model_files, prompt_file, capsys):
        w, c = model_files
        code = run_cli(["invariance", "--model", w, "--config", c, "--prompt", prompt_file,
                        "--modes", "pine,pcw,sp,vanilla", "--max-new-tokens", "4"])
        capsys.readouterr()
        assert code == 0

    def test_k1_prompt_usage_error(self, model_files, tmp_path, capsys):
        w, c = model_files
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"prefix": "S", "documents": ["x"], "suffix": "Q"}))
        code = run_cli(["invariance", "--model", w, "--config", c, "--prompt", str(p)])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("limit", ["0", "1"])
    def test_fewer_than_two_orders_usage_error(self, model_files, prompt_file, limit, capsys):
        # One order cannot show invariance; the suite must refuse, not pass.
        w, c = model_files
        code = run_cli(["invariance", "--model", w, "--config", c, "--prompt", prompt_file,
                        "--limit", limit])
        out, err = capsys.readouterr()
        assert code == 1
        assert "invariant" not in out
        assert "--limit" in err


class TestBiasScan:
    def test_pine_flat_vanilla_reported(self, model_files, tmp_path, capsys):
        w, c = model_files
        scan = tmp_path / "scan.json"
        scan.write_text(json.dumps(SCAN))
        assert run_cli(["bias-scan", "--model", w, "--config", c, "--scan", str(scan),
                        "--modes", "vanilla,pine"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("pine\t")]
        values = [float(l.split("\t")[2]) for l in lines]
        assert len(values) == 4
        assert max(values) - min(values) <= 1e-4

    def test_exact_match_metric(self, model_files, tmp_path, capsys):
        w, c = model_files
        scan = tmp_path / "scan.json"
        scan.write_text(json.dumps({**SCAN, "metric": "exact_match", "positions": [0, 3]}))
        assert run_cli(["bias-scan", "--model", w, "--config", c, "--scan", str(scan),
                        "--modes", "vanilla,pine"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "mode\tgold_position\texact_match"
        rows = [l.split("\t") for l in out.splitlines()[1:]]
        assert [(m, p) for m, p, _ in rows] == [("vanilla", "0"), ("vanilla", "3"),
                                                ("pine", "0"), ("pine", "3")]
        assert all(float(v) in (0.0, 1.0) for _, _, v in rows)

    @pytest.mark.parametrize("bad", [
        {"needle": ""},
        {"gold": ""},
        {"prefix": 5},
        {"gold": ["4", "2"]},
        {"distractors": "nothing here"},
        {"distractors": ["nothing here", ""]},
        {"distractors": ["nothing here", 7]},
        {"positions": [7]},
        {"positions": [-1]},
        {"positions": [0.5]},
        {"positions": []},
        {"positions": 0},
        {"positions": None},
        {"positions": [True]},
        {"metric": "bogus"},
    ])
    def test_malformed_scan_usage_error(self, model_files, tmp_path, bad, capsys):
        w, c = model_files
        scan = tmp_path / "scan.json"
        scan.write_text(json.dumps({**SCAN, **bad}))
        code = run_cli(["bias-scan", "--model", w, "--config", c, "--scan", str(scan)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: scan") or err.startswith("error: unknown metric")

    def test_scan_not_an_object_usage_error(self, model_files, tmp_path, capsys):
        w, c = model_files
        scan = tmp_path / "scan.json"
        scan.write_text(json.dumps(list(SCAN)))
        code = run_cli(["bias-scan", "--model", w, "--config", c, "--scan", str(scan)])
        assert code == 1
        assert capsys.readouterr().err == ("error: cannot load scan config: "
                                           "scan config must be a JSON object\n")

    @pytest.mark.parametrize("content", [None, b"{not json", b"\xff\xfe", b"[" * 100_000],
                             ids=["missing", "not-json", "not-utf8", "too-deep"])
    def test_unreadable_scan_io_error(self, model_files, tmp_path, content, capsys):
        w, c = model_files
        scan = tmp_path / "scan.json"
        if content is not None:
            scan.write_bytes(content)
        code = run_cli(["bias-scan", "--model", w, "--config", c, "--scan", str(scan)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot load scan config")

    @pytest.mark.parametrize("bad", [
        {"prefix": "\ud800"},
        {"needle": "the answer is \udfff"},
        {"distractors": ["nothing here", "\ud800"]},
    ])
    def test_unencodable_scan_io_error(self, model_files, tmp_path, bad, capsys):
        w, c = model_files
        scan = tmp_path / "scan.json"
        scan.write_text(json.dumps({**SCAN, **bad}))
        code = run_cli(["bias-scan", "--model", w, "--config", c, "--scan", str(scan)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot load scan config")

    def test_integer_too_long_to_parse_io_error(self, model_files, tmp_path, capsys):
        w, c = model_files
        scan = tmp_path / "scan.json"
        scan.write_text(json.dumps(SCAN)[:-1] + ', "positions": [' + "1" * 5000 + "]}")
        code = run_cli(["bias-scan", "--model", w, "--config", c, "--scan", str(scan)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot load scan config")

    def test_missing_scan_key(self, model_files, tmp_path, capsys):
        w, c = model_files
        scan = tmp_path / "scan.json"
        scan.write_text(json.dumps({"prefix": "S"}))
        code = run_cli(["bias-scan", "--model", w, "--config", c, "--scan", str(scan)])
        capsys.readouterr()
        assert code == 1


    def test_report_mode_entries_share_keys(self, model_files, prompt_file, tmp_path, capsys):
        w, c = model_files
        report = tmp_path / "report.json"
        assert run_cli(["invariance", "--model", w, "--config", c, "--prompt", prompt_file,
                        "--modes", "pine,vanilla", "--max-new-tokens", "2",
                        "--report-out", str(report)]) == 0
        capsys.readouterr()
        results = json.loads(report.read_text())["results"]
        assert list(results) == ["pine", "vanilla"]
        assert results["pine"].keys() == results["vanilla"].keys()
        assert results["pine"]["witness_pair"] is None  # bitwise invariant: no pair differs
        pair = results["vanilla"]["witness_pair"]
        assert isinstance(pair, list) and len(pair) == 2


class TestSubcommands:
    def test_readme_lists_the_parser_subcommands(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        listed = re.search(r"with subcommands\s+`([^`]+)`", readme).group(1)
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert [name.strip() for name in listed.split("|")] == list(sub.choices)

    def test_removed_bench_is_a_usage_error(self, model_files, prompt_file, capsys):
        w, c = model_files
        code = run_cli(["bench", "--model", w, "--config", c, "--prompt", prompt_file])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert "invalid choice: 'bench'" in err


class TestConfigHash:
    # Each run is its own process, as from a shell: the hash must not take
    # in anything that differs between processes, such as an address.
    def hash_of(self, model_files, prompt_file, tmp_path, mode):
        w, c = model_files
        report = tmp_path / "report.json"
        src = str(Path(posinv.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "posinv.cli", "run", "--model", w, "--config", c,
             "--prompt", prompt_file, "--mode", mode, "--max-new-tokens", "1",
             "--report-out", str(report)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(report.read_text())["config_hash"]

    def test_same_arguments_same_hash(self, model_files, prompt_file, tmp_path):
        first = self.hash_of(model_files, prompt_file, tmp_path, "pine")
        assert self.hash_of(model_files, prompt_file, tmp_path, "pine") == first
        assert self.hash_of(model_files, prompt_file, tmp_path, "pcw") != first


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run_cli(["run"]) == 1
        capsys.readouterr()

    def test_io_error(self, tmp_path, prompt_file, capsys):
        code = run_cli(["run", "--model", str(tmp_path / "missing.bin"),
                        "--config", str(tmp_path / "missing.txt"),
                        "--prompt", prompt_file, "--mode", "pine"])
        capsys.readouterr()
        assert code == 2

    # A file that cannot be read as JSON is an I/O error (2); well-formed
    # JSON of the wrong shape is a usage error (1), as for a scan file.
    @pytest.mark.parametrize("content, expected", [
        (None, 2), (b"\xff\xfe", 2), (b"[" * 100_000, 2), (b'["S", ["A"], "Q"]', 1),
        (b'{"prefix": "S", "documents": "AB", "suffix": "Q"}', 1),
        (b'{"prefix": "S", "documents": ["A", 3], "suffix": "Q"}', 1),
        (b'{"prefix": 1, "documents": ["A"], "suffix": "Q"}', 1),
        (b'{"prefix": "S", "documents": ["A"], "suffix": null}', 1),
    ], ids=["missing", "not-utf8", "too-deep", "not-an-object", "documents-a-string",
            "non-string-document", "number-prefix", "null-suffix"])
    def test_unreadable_prompt_io_error(self, model_files, tmp_path, content, expected, capsys):
        w, c = model_files
        p = tmp_path / "prompt.json"
        if content is not None:
            p.write_bytes(content)
        code = run_cli(["run", "--model", w, "--config", c, "--prompt", str(p)])
        assert code == expected
        assert capsys.readouterr().err.startswith("error: cannot load prompt")

    @pytest.mark.parametrize("defect", [
        {"suffix": None}, {"prefix": 3}, {"suffix": "missing"}, "array", "not-json", "no-file",
    ], ids=["null-suffix", "number-prefix", "missing-key", "top-level-array", "not-json",
            "missing-file"])
    def test_prompt_and_scan_defects_share_an_exit_code(self, model_files, tmp_path, defect,
                                                        capsys):
        # The same defect in a prompt file and in a scan file ends in the
        # same exit code: 1 for JSON of the wrong shape, 2 for unreadable JSON.
        w, c = model_files
        codes = []
        for flag, good, cmd in [("--prompt", PROMPT, "run"), ("--scan", SCAN, "bias-scan")]:
            path = tmp_path / f"{cmd}.json"
            if defect == "array":
                path.write_text(json.dumps(list(good.values())))
            elif defect == "not-json":
                path.write_text("{not json")
            elif defect != "no-file":
                body = {**good, **defect}
                if body["suffix"] == "missing":
                    del body["suffix"]
                path.write_text(json.dumps(body))
            codes.append(run_cli([cmd, "--model", w, "--config", c, flag, str(path)]))
        capsys.readouterr()
        assert codes[0] == codes[1] == (2 if defect in ("not-json", "no-file") else 1)

    def test_non_finite_weights_io_error(self, model_files, prompt_file, tmp_path, capsys):
        from posinv.model import load_tensors, save_tensors

        w, c = model_files
        tensors = load_tensors(w)
        tensors["embed.weight"][0, 0] = np.nan
        bad = str(tmp_path / "w.bin")
        save_tensors(bad, tensors)
        code = run_cli(["run", "--model", bad, "--config", c, "--prompt", prompt_file])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot load model") and "non-finite" in err

    @pytest.mark.parametrize("wide", ["all", "one"])
    def test_float64_weights_io_error(self, model_files, prompt_file, tmp_path, wide, capsys):
        # The runtime computes in float32 only: F64 tensors, in every tensor or
        # in one, are refused when the container loads.
        from posinv.model import load_tensors

        w, c = model_files
        header, payload = {}, b""
        for name, arr in sorted(load_tensors(w).items()):
            f64 = wide == "all" or name == "embed.weight"
            raw = arr.astype("<f8" if f64 else "<f4").tobytes()
            header[name] = {"dtype": "F64" if f64 else "F32", "shape": list(arr.shape),
                            "data_offsets": [len(payload), len(payload) + len(raw)]}
            payload += raw
        blob = json.dumps(header).encode()
        bad = tmp_path / "w.bin"
        bad.write_bytes(struct.pack("<Q", len(blob)) + blob + payload)
        code = run_cli(["run", "--model", str(bad), "--config", c, "--prompt", prompt_file])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot load model") and "F64" in err

    def test_empty_prompt_usage_error(self, model_files, tmp_path, capsys):
        w, c = model_files
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"prefix": "", "documents": [], "suffix": ""}))
        code = run_cli(["run", "--model", w, "--config", c, "--prompt", str(p)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "empty" in err

    @pytest.mark.parametrize("cmd", ["run", "compare", "invariance"])
    def test_negative_max_new_tokens_usage_error(self, model_files, prompt_file, cmd, capsys):
        w, c = model_files
        code = run_cli([cmd, "--model", w, "--config", c, "--prompt", prompt_file,
                        "--max-new-tokens", "-3"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert "--max-new-tokens" in err

    @pytest.mark.parametrize("cmd", ["run", "compare", "invariance"])
    @pytest.mark.parametrize("field", ["prefix", "documents", "suffix"])
    def test_unencodable_prompt_io_error(self, model_files, tmp_path, cmd, field, capsys):
        w, c = model_files
        p = tmp_path / "prompt.json"
        text = ["ok", "bad \ud800"] if field == "documents" else "bad \ud800"
        p.write_text(json.dumps({**PROMPT, field: text}))
        code = run_cli([cmd, "--model", w, "--config", c, "--prompt", str(p)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot load prompt")

    @pytest.mark.parametrize("tolerance", ["-1", "nan"])
    def test_bad_tolerance_usage_error(self, model_files, prompt_file, tolerance, capsys):
        w, c = model_files
        code = run_cli(["invariance", "--model", w, "--config", c, "--prompt", prompt_file,
                        "--tolerance", tolerance])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert "--tolerance" in err

    def test_negative_seed_usage_error(self, model_files, prompt_file, tmp_path, capsys):
        w, c = model_files
        code = run_cli(["init", "--model", str(tmp_path / "w.bin"),
                        "--config", str(tmp_path / "c.txt"), "--seed", "-1"])
        assert code == 1
        assert not (tmp_path / "w.bin").exists()
        # --limit 2 of the 6 orders samples them with the seed.
        code = run_cli(["invariance", "--model", w, "--config", c, "--prompt", prompt_file,
                        "--limit", "2", "--seed", "-1"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert "--seed" in err

    def test_non_utf8_config_io_error(self, model_files, prompt_file, tmp_path, capsys):
        w, _ = model_files
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"n_layers=2\n\xff=1\n")
        code = run_cli(["run", "--model", w, "--config", str(bad), "--prompt", prompt_file])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot load model")

    def test_non_numeric_config_value_io_error(self, model_files, prompt_file, tmp_path, capsys):
        w, c = model_files
        bad = tmp_path / "bad.txt"
        lines = open(c, encoding="utf-8").read().splitlines()
        bad.write_text("\n".join("n_layers=two" if l.startswith("n_layers=") else l
                                 for l in lines) + "\n")
        code = run_cli(["run", "--model", w, "--config", str(bad), "--prompt", prompt_file])
        err = capsys.readouterr().err
        assert code == 2
        assert "n_layers" in err

    def test_overflowing_weights_io_error(self, model_files, prompt_file, tmp_path, capsys):
        # Finite weights pass validation, but their products overflow float32.
        from posinv import load_weights, save_weights
        from posinv.model import Model

        config, weights = load_weights(*model_files)
        weights.tensors["layers.0.q_proj.weight"][:] = 3e38
        w, c = str(tmp_path / "w.bin"), str(tmp_path / "c.txt")
        save_weights(w, c, Model(config, weights))
        code = run_cli(["run", "--model", w, "--config", c, "--prompt", prompt_file,
                        "--mode", "pine"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: weights overflow")

    def test_prompt_longer_than_max_seq_len_usage_error(self, tmp_path, capsys):
        w, c = str(tmp_path / "w.bin"), str(tmp_path / "c.txt")
        assert main(["init", "--model", w, "--config", c, "--n-layers", "1",
                     "--n-heads", "2", "--n-kv-heads", "1", "--d-head", "16",
                     "--d-ff", "64", "--max-seq-len", "16"]) == 0
        p = tmp_path / "long.json"
        p.write_text(json.dumps({"prefix": "x" * 20, "documents": ["a", "b"], "suffix": "Q"}))
        capsys.readouterr()
        code = run_cli(["run", "--model", w, "--config", c, "--prompt", str(p),
                        "--max-new-tokens", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert "max_seq_len" in err


    @pytest.mark.parametrize("shape", [
        ["--d-head", "15"],
        ["--n-heads", "3", "--n-kv-heads", "2"],
        ["--vocab-size", "100"],
        ["--n-kv-heads", "0"],
        ["--d-ff", "-4"],
        ["--n-layers", "-1"],
        ["--max-seq-len", "0"],
    ])
    def test_init_bad_shape_usage_error(self, tmp_path, shape, capsys):
        w, c = str(tmp_path / "w.bin"), str(tmp_path / "c.txt")
        code = run_cli(["init", "--model", w, "--config", c, *shape])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert not (tmp_path / "w.bin").exists()

    def test_init_unallocatable_model_usage_error(self, tmp_path, capsys):
        # The embedding would need 455 PiB, more than any address space:
        # numpy refuses it at once, without allocating anything.
        w, c = str(tmp_path / "w.bin"), str(tmp_path / "c.txt")
        code = run_cli(["init", "--model", w, "--config", c, "--vocab-size", str(10**15)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: cannot allocate model: ")
        assert not (tmp_path / "w.bin").exists()

    def test_unholdable_tensor_shape_io_error(self, model_files, prompt_file, tmp_path, capsys):
        # One header entry with a shape numpy cannot hold (70 dimensions).
        w, c = model_files
        data = Path(w).read_bytes()
        (n,) = struct.unpack("<Q", data[:8])
        header = json.loads(data[8:8 + n])
        header["extra"] = {"dtype": "F32", "shape": [1] * 70, "data_offsets": [0, 4]}
        blob = json.dumps(header).encode()
        bad = tmp_path / "w.bin"
        bad.write_bytes(struct.pack("<Q", len(blob)) + blob + data[8 + n:])
        code = run_cli(["run", "--model", str(bad), "--config", c, "--prompt", prompt_file])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot load model") and "shape" in err

    def test_config_vocab_too_small_io_error(self, model_files, prompt_file, tmp_path, capsys):
        w, c = model_files
        bad = tmp_path / "bad.txt"
        lines = open(c, encoding="utf-8").read().splitlines()
        bad.write_text("\n".join("vocab_size=100" if l.startswith("vocab_size=") else l
                                 for l in lines) + "\n")
        code = run_cli(["run", "--model", w, "--config", str(bad), "--prompt", prompt_file,
                        "--max-new-tokens", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "vocab_size" in err

    @pytest.mark.parametrize("line", ["norm_eps=0", "n_layers=0"])
    def test_config_non_positive_value_io_error(self, model_files, prompt_file, tmp_path,
                                                line, capsys):
        w, c = model_files
        key = line.split("=")[0]
        bad = tmp_path / "bad.txt"
        lines = open(c, encoding="utf-8").read().splitlines()
        bad.write_text("\n".join(line if l.startswith(key + "=") else l for l in lines) + "\n")
        code = run_cli(["run", "--model", w, "--config", str(bad), "--prompt", prompt_file,
                        "--max-new-tokens", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert key in err


@pytest.fixture(scope="module")
def short_model_files(tmp_path_factory):
    """A model with max_seq_len 24."""
    d = tmp_path_factory.mktemp("short")
    w, c = str(d / "w.bin"), str(d / "c.txt")
    assert main(["init", "--model", w, "--config", c, "--n-layers", "1", "--n-heads", "2",
                 "--n-kv-heads", "1", "--d-head", "16", "--d-ff", "64",
                 "--max-seq-len", "24"]) == 0
    return w, c


ELEVEN_TOKENS = {"prefix": "S", "documents": ["abc", "de", "fg"], "suffix": " Q?"}


class TestEmptySuffix:
    def test_invariance_usage_error(self, model_files, tmp_path, capsys):
        w, c = model_files
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"prefix": "sys ", "documents": ["alpha", "beta beta", "c"],
                                 "suffix": ""}))
        code = run_cli(["invariance", "--model", w, "--config", c, "--prompt", str(p)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert "empty suffix" in err

    def test_bias_scan_usage_error(self, model_files, tmp_path, capsys):
        w, c = model_files
        scan = tmp_path / "scan.json"
        scan.write_text(json.dumps({**SCAN, "suffix": ""}))
        code = run_cli(["bias-scan", "--model", w, "--config", c, "--scan", str(scan)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: scan suffix")


class TestRefuseWhatCannotFit:
    @pytest.mark.parametrize("cmd", ["run", "compare", "invariance"])
    def test_generation_past_max_seq_len_usage_error(self, short_model_files, tmp_path, cmd,
                                                     capsys):
        w, c = short_model_files
        p = tmp_path / "p.json"
        p.write_text(json.dumps(ELEVEN_TOKENS))
        code = run_cli([cmd, "--model", w, "--config", c, "--prompt", str(p),
                        "--max-new-tokens", "15"])  # 11 + 15 - 1 = 25 > 24
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert "15 new tokens" in err and "max_seq_len 24" in err

    def test_generation_filling_max_seq_len_runs(self, short_model_files, tmp_path, capsys):
        w, c = short_model_files
        p = tmp_path / "p.json"
        p.write_text(json.dumps(ELEVEN_TOKENS))
        code = run_cli(["run", "--model", w, "--config", c, "--prompt", str(p),
                        "--max-new-tokens", "14"])  # 11 + 14 - 1 = 24
        capsys.readouterr()
        assert code == 0

    @pytest.mark.parametrize("metric", ["exact_match", "gold_token_logprob"])
    def test_bias_scan_past_max_seq_len_usage_error(self, short_model_files, tmp_path, metric,
                                                    capsys):
        w, c = short_model_files
        scan = tmp_path / "scan.json"
        scan.write_text(json.dumps({"prefix": "S:", "needle": "n", "gold": "g" * 21,
                                    "distractors": ["d"], "suffix": "?", "metric": metric}))
        code = run_cli(["bias-scan", "--model", w, "--config", c, "--scan", str(scan)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert "max_seq_len 24" in err

    def test_bench_skips_comparator_prompts_that_do_not_fit(self, short_model_files):
        # "sys:", k documents of 3 bytes and "q?", plus one decoded token:
        # k = 2 and 4 fit in 24 positions, 8 does not.
        model = Model(*load_weights(*short_model_files))
        assert list(comparator_counts_per_token(model, [2, 4, 8])) == [2, 4]


def test_config_tie_embeddings_not_boolean_io_error(model_files, prompt_file, tmp_path, capsys):
    w, c = model_files
    bad = tmp_path / "bad.txt"
    bad.write_text(open(c, encoding="utf-8").read() + "tie_embeddings=maybe\n")
    code = run_cli(["run", "--model", w, "--config", str(bad), "--prompt", prompt_file,
                    "--max-new-tokens", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "tie_embeddings" in err


class TestEmptyModeList:
    @pytest.mark.parametrize("cmd", ["compare", "invariance", "bias-scan"])
    def test_usage_error(self, model_files, prompt_file, tmp_path, cmd, capsys):
        # An empty list would test nothing and pass.
        w, c = model_files
        scan = tmp_path / "scan.json"
        scan.write_text(json.dumps(SCAN))
        source = ["--scan", str(scan)] if cmd == "bias-scan" else ["--prompt", prompt_file]
        code = run_cli([cmd, "--model", w, "--config", c, *source, "--modes", ",",
                        "--report-out", str(tmp_path / "r.json")])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert "names no mode" in err
        assert not (tmp_path / "r.json").exists()


def unwritable(tmp_path, where):
    """A path no file can be written at: under a missing directory, or a directory."""
    return str(tmp_path / "missing" / "out") if where == "missing_dir" else str(tmp_path)


class TestUnwritableOutput:
    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_report_out_io_error(self, model_files, prompt_file, tmp_path, where, capsys):
        w, c = model_files
        code = run_cli(["run", "--model", w, "--config", c, "--prompt", prompt_file,
                        "--max-new-tokens", "1", "--report-out", unwritable(tmp_path, where)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot write report") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--model", "--config"])
    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_init_io_error(self, tmp_path, flag, where, capsys):
        paths = {"--model": str(tmp_path / "w.bin"), "--config": str(tmp_path / "c.txt")}
        paths[flag] = unwritable(tmp_path, where)
        code = run_cli(["init", "--model", paths["--model"], "--config", paths["--config"],
                        "--n-layers", "1", "--d-head", "8", "--d-ff", "16"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write model") and err.count("\n") == 1


def test_overflow_reported_once(model_files, prompt_file, tmp_path, capsys):
    # The typed error is the only report: numpy's overflow warning stays silent.
    from posinv import load_weights, save_weights
    from posinv.model import Model

    config, weights = load_weights(*model_files)
    weights.tensors["layers.0.q_proj.weight"][:] = 3e38
    w, c = str(tmp_path / "w.bin"), str(tmp_path / "c.txt")
    save_weights(w, c, Model(config, weights))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["run", "--model", w, "--config", c, "--prompt", prompt_file])
    err = capsys.readouterr().err
    assert code == 2
    assert not [x for x in caught if issubclass(x.category, RuntimeWarning)]
    assert err.startswith("error: weights overflow") and err.count("\n") == 1
