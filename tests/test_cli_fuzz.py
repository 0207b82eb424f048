"""Hypothesis fuzz of the command line.

Draws a subcommand, a value or none for each of its flags (sizes bounded
so no draw allocates more than a few MB or runs long), and for each path
flag an input that exists, a file of the wrong kind, a missing file, a
directory, or a path under a missing directory.  Every draw must end in
a documented exit code, 0 to 3, and never raise out of ``cli.main``.

A second test draws the contents of the prompt or scan file instead: any
JSON value, or the good object with fields dropped or swapped for any
JSON value, run by a command on a good model.

A third draws the model: ``init`` flags, mostly ones that build a model,
then one ``run``, ``compare`` or ``invariance`` command on it.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posinv.cli import main
from posinv.modes import VARIANTS

PROMPT = {"prefix": "S: ", "documents": ["alpha", "be", "gam"], "suffix": " Q?"}
SCAN = {"prefix": "S: ", "needle": "it is 42", "gold": "42", "distractors": ["no", "nil"],
        "suffix": " Q?"}
# Read-only inputs: every path flag but the ones init and --report-out write.
INPUTS = ("w.bin", "c.txt", "prompt.json", "scan.json", "junk.txt", "missing.json", "dir",
          "nodir/x")
OUTPUTS = ("existing", "new", "dir", "nodir/x")  # under a fresh directory per draw


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    assert main(["init", "--model", str(d / "w.bin"), "--config", str(d / "c.txt"),
                 "--n-layers", "1", "--n-heads", "2", "--n-kv-heads", "1", "--d-head", "8",
                 "--d-ff", "16", "--max-seq-len", "64"]) == 0
    (d / "prompt.json").write_text(json.dumps(PROMPT))
    (d / "scan.json").write_text(json.dumps(SCAN))
    (d / "junk.txt").write_text("neither a model, a prompt nor a scan\n")
    (d / "dir").mkdir()
    return d


def mostly(likely, rarely):
    """Draw from ``likely`` seven times in eight, so that many argvs get past
    parsing and loading and run a command."""
    return st.sampled_from([True] * 7 + [False]).flatmap(lambda p: likely if p else rarely)


def flag(name, values, required=False):
    """[name, value] or [] (flag left out, rarely for a required flag)."""
    given = values.map(lambda v: [name, v])
    return mostly(given, st.just([])) if required else st.one_of(st.just([]), given)


def texts(*examples):
    # Any text argv can hold: no NUL, no lone surrogate outside surrogateescape's.
    chars = st.characters(exclude_categories=("Cs",), exclude_characters="\0")
    return mostly(st.sampled_from(examples), st.text(chars, max_size=4))


def path(good):
    """A read-only input: mostly ``good``, else any of INPUTS."""
    return mostly(st.just(good), st.sampled_from(INPUTS)).map(lambda v: "in:" + v)


OUT = st.sampled_from(OUTPUTS).map(lambda v: "out:" + v)
MODES = texts("", ",", " , ", "vanilla", "pine,sp", "pcw, nia", "vanilla,bogus")
COUNT = texts("-1", "0", "1", "3", "x")


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(["init", "run", "compare", "invariance", "bias-scan", "bogus"]))
    args = [cmd]
    if cmd == "init":
        args += draw(flag("--model", OUT, required=True))
        args += draw(flag("--config", OUT, required=True))
        for name, values in [("--n-layers", ("-1", "1", "2")), ("--n-heads", ("1", "2", "3")),
                             ("--n-kv-heads", ("0", "1", "2")), ("--d-head", ("3", "4", "8")),
                             ("--d-ff", ("0", "8")), ("--vocab-size", ("1", "260", "300")),
                             ("--max-seq-len", ("0", "8", "64")), ("--seed", ("-1", "0"))]:
            args += draw(flag(name, texts(*values)))
        return args
    args += draw(flag("--model", path("w.bin"), required=True))
    args += draw(flag("--config", path("c.txt"), required=True))
    if cmd == "bias-scan":
        args += draw(flag("--scan", path("scan.json"), required=True))
    else:
        args += draw(flag("--prompt", path("prompt.json"), required=True))
    args += draw(flag("--aggregation", texts("mean", "sum", "max", "median")))
    args += draw(st.sampled_from([[], ["--bos"]]))
    args += draw(st.sampled_from([[], ["--canonical-reduction"], ["--no-canonical-reduction"]]))
    args += draw(flag("--report-out", OUT))
    if cmd == "run":
        args += draw(flag("--mode", texts(*VARIANTS, "bogus")))
    if cmd != "run":
        args += draw(flag("--modes", MODES))
    if cmd in ("run", "compare", "invariance"):
        args += draw(flag("--max-new-tokens", COUNT))
    if cmd == "invariance":
        args += draw(flag("--limit", texts("-1", "1", "2", "3", "x")))
        args += draw(flag("--seed", COUNT))
        args += draw(flag("--tolerance", texts("0", "1e-4", "-1", "nan", "inf", "x")))
    return args


def resolve(arg, inputs, out):
    """A drawn path token as a real path under ``inputs`` or ``out``."""
    if arg.startswith(("in:", "out:")):
        where, name = arg.split(":", 1)
        return str((inputs if where == "in" else out) / name)
    return arg


MISSING = object()  # a dropped field
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def contents(good):
    """Any JSON value, or mostly ``good`` with each field mostly kept and
    otherwise dropped or swapped for any JSON value."""
    obj = st.fixed_dictionaries({k: mostly(st.just(v), st.just(MISSING) | JSON)
                                 for k, v in good.items()})
    return mostly(obj.map(lambda d: {k: v for k, v in d.items() if v is not MISSING}), JSON)


@st.composite
def file_runs(draw):
    """(command argv without the file, file flag, file contents)."""
    cmd = draw(st.sampled_from(["run", "compare", "invariance", "bias-scan"]))
    args = [cmd, "--model", "in:w.bin", "--config", "in:c.txt"]
    if cmd == "bias-scan":
        return args + ["--modes", "vanilla,pine"], "--scan", draw(contents(SCAN))
    args += ["--max-new-tokens", draw(st.sampled_from(["0", "1"]))]
    if cmd == "invariance":
        args += ["--limit", "2"]
    if cmd == "compare":
        args += ["--modes", "vanilla,pine"]
    return args, "--prompt", draw(contents(PROMPT))


# init flag values that build a model of a few kB (with n_heads a multiple
# of n_kv_heads), or one too short for the prompt; texts() adds bad ones.
MODEL_FLAGS = [("--n-layers", ("1", "2")), ("--n-heads", ("2", "4")),
               ("--n-kv-heads", ("1", "2")), ("--d-head", ("4", "8")),
               ("--d-ff", ("8", "16")), ("--vocab-size", ("260", "300")),
               ("--max-seq-len", ("64", "256", "8")), ("--seed", ("0", "5"))]


@st.composite
def model_runs(draw):
    """(init flags, command argv without --model, --config and --prompt)."""
    init = [a for name, values in MODEL_FLAGS for a in draw(flag(name, texts(*values)))]
    cmd = draw(st.sampled_from(["run", "compare", "invariance"]))
    args = [cmd]
    args += draw(flag("--mode", texts(*VARIANTS))) if cmd == "run" else draw(flag("--modes", MODES))
    args += draw(flag("--aggregation", texts("mean", "sum", "max")))
    args += draw(st.sampled_from([[], ["--bos"]]))
    args += draw(st.sampled_from([[], ["--no-canonical-reduction"]]))
    args += draw(flag("--max-new-tokens", texts("0", "1", "2")))
    if cmd == "invariance":
        args += ["--limit", draw(st.sampled_from(["2", "3"]))]
    return init, args


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_every_argv_ends_in_an_exit_code(inputs, argv, capsys):
    with tempfile.TemporaryDirectory(dir=inputs) as tmp:
        out = Path(tmp)
        (out / "existing").write_text("old\n")
        (out / "dir").mkdir()
        code = main([resolve(a, inputs, out) for a in argv])
    capsys.readouterr()
    assert code in (0, 1, 2, 3), argv


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(run=file_runs())
def test_every_prompt_and_scan_file_ends_in_an_exit_code(inputs, run, capsys):
    args, name, body = run
    with tempfile.TemporaryDirectory(dir=inputs) as tmp:
        path = Path(tmp) / "file.json"
        path.write_text(json.dumps(body))
        code = main([resolve(a, inputs, Path(tmp)) for a in args] + [name, str(path)])
    capsys.readouterr()
    assert code in (0, 1, 2, 3), (args, body)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(run=model_runs())
def test_every_command_on_a_drawn_model_ends_in_an_exit_code(inputs, run, capsys):
    init, args = run
    with tempfile.TemporaryDirectory(dir=inputs) as tmp:
        w, c = str(Path(tmp) / "w.bin"), str(Path(tmp) / "c.txt")
        built = main(["init", "--model", w, "--config", c, *init])
        code = main(args + ["--model", w, "--config", c, "--prompt", str(inputs / "prompt.json")])
    capsys.readouterr()
    assert built in (0, 1) and code in (0, 1, 2, 3), (init, args)
