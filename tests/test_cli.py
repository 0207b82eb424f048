import json

import pytest

from posinv.cli import main

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
        assert capsys.readouterr().err.startswith("error: scan config must be")

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


class TestBench:
    def test_reports_ratio_and_counts(self, model_files, prompt_file, capsys):
        w, c = model_files
        assert run_cli(["bench", "--model", w, "--config", c, "--prompt", prompt_file,
                        "--modes", "vanilla,pine", "--repeats", "3",
                        "--max-new-tokens", "2"]) == 0
        out = capsys.readouterr().out
        assert "ratio_vs_vanilla" in out
        assert "comparator_invocations_per_decoded_token" in out

    def test_too_few_repeats(self, model_files, prompt_file, capsys):
        w, c = model_files
        code = run_cli(["bench", "--model", w, "--config", c, "--prompt", prompt_file,
                        "--repeats", "2"])
        capsys.readouterr()
        assert code == 1


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

    @pytest.mark.parametrize("content", [None, b"\xff\xfe", b"[" * 100_000],
                             ids=["missing", "not-utf8", "too-deep"])
    def test_unreadable_prompt_io_error(self, model_files, tmp_path, content, capsys):
        w, c = model_files
        p = tmp_path / "prompt.json"
        if content is not None:
            p.write_bytes(content)
        code = run_cli(["run", "--model", w, "--config", c, "--prompt", str(p)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot load prompt")

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

    @pytest.mark.parametrize("cmd", ["run", "compare", "invariance", "bench"])
    def test_negative_max_new_tokens_usage_error(self, model_files, prompt_file, cmd, capsys):
        w, c = model_files
        code = run_cli([cmd, "--model", w, "--config", c, "--prompt", prompt_file,
                        "--max-new-tokens", "-3"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert "--max-new-tokens" in err

    @pytest.mark.parametrize("cmd", ["run", "compare", "invariance", "bench"])
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
    @pytest.mark.parametrize("cmd", ["run", "compare", "invariance", "bench"])
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

    def test_bench_skips_comparator_prompts_that_do_not_fit(self, short_model_files, tmp_path,
                                                            capsys):
        w, c = short_model_files
        p = tmp_path / "p.json"
        p.write_text(json.dumps(ELEVEN_TOKENS))
        report = tmp_path / "report.json"
        code = run_cli(["bench", "--model", w, "--config", c, "--prompt", str(p),
                        "--repeats", "3", "--max-new-tokens", "1",
                        "--report-out", str(report)])
        capsys.readouterr()
        assert code == 0
        # "sys:", k documents of 3 bytes and "q?", plus one decoded token:
        # k = 2 and 4 fit in 24 positions, 8 does not.
        assert list(json.loads(report.read_text())["results"]["comparator_counts"]) == ["2", "4"]


def test_config_tie_embeddings_not_boolean_io_error(model_files, prompt_file, tmp_path, capsys):
    w, c = model_files
    bad = tmp_path / "bad.txt"
    bad.write_text(open(c, encoding="utf-8").read() + "tie_embeddings=maybe\n")
    code = run_cli(["run", "--model", w, "--config", str(bad), "--prompt", prompt_file,
                    "--max-new-tokens", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "tie_embeddings" in err
