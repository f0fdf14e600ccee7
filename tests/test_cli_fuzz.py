"""Fuzz gate over every command's options.

Each drawn command line either exits 0 with valid artifacts, or exits 1
with one `error:` line that names an option or a file, with nothing on
stdout, no warning and no output file; argparse's own usage errors keep
exit code 2, also without output files. Values are drawn from 0, -1,
nan, inf, garbage strings and small valid values, as flags or as config
file lines, next to config keys the command does not take.

The valid values are small, so no run asks for large arrays or long runs;
`_check_bounds` enforces that before any run, on the values as `cli`
resolves them (flags, file lines and defaults alike).
"""

import contextlib
import io
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rvqgen import checkpoint as ckpt_mod
from rvqgen import cli
from rvqgen import data as data_mod
from rvqgen import rvq

BAD = ["0", "-1", "nan", "inf", "-inf", "1e400", "abc", "", "3.5", "0x10"]

VALID = {
    "synth": dict(family=["grid", "ring", "classes", "spiral"], count=["1", "6"],
                  seq_len=["1", "3"], dim=["1", "3"], modes=["1", "4", "5"],
                  noise=["0", "0.1"], spread=["-1", "2"], num_classes=["2"],
                  class_shift=["0.5"], seed=["3"]),
    "fit-rvq": dict(depth=["1", "3"], vocab=["2", "5"],
                    update=["nearest", "probabilistic", "soft"], epochs=["2"],
                    sigma_assign=["0.5", "1"], seed=["4"]),
    "train": dict(steps=["1", "2"], batch_size=["1", "3"], lr=["1e-3"],
                  schedule=["cosine", "exp", "exp:2", "exp:nan", "exp:abc", "line"],
                  label_dropout=["0.5", "1"], warmup=["1"], lr_decay=["none", "step"],
                  min_lr_frac=["1"], clip_norm=["0.5"], weight_decay=["0.1"],
                  ema_decay=["0.9", "1"], checkpoint_every=["1"],
                  differentiate_q=["true", "no", "maybe"], audit_steps=["0", "1,2", "x"],
                  seed=["5"], width=["4", "6"], layers=["1", "2"], heads=["1", "2", "3"],
                  mixtures=["1", "3"], mean_rank=["1", "3"]),
    "sample": dict(count=["1", "2"], label=["1", "2", "3"], weights=["raw", "mean"],
                   preset=["paper-28", "paper-99"], steps=["1", "3"],
                   schedule=["cosine", "exp:3", "exp:inf"],
                   selection=["random", "greedy"], temperature=["2"],
                   top_p=["0.5", "1.5"], cfg_start=["1"], cfg_end=["2"],
                   use_cfg=["true", "off"], seed=["6"]),
}

# small valid values for the size options a draw leaves out: the defaults
# of `synth` (10,000 records) and `train` (1,000 steps of a width-64 model)
# are real runs
BASE = {
    "synth": dict(count="8", seq_len="2", dim="2"),
    "fit-rvq": dict(epochs="1"),
    "train": dict(steps="1", batch_size="2", width="8", layers="1", heads="2",
                  mixtures="2", mean_rank="2"),
    "sample": dict(count="1", steps="2"),
}

# the largest resolved value any run may take
BOUNDS = {
    "synth": dict(count=8, seq_len=3, dim=3, modes=9),
    "fit-rvq": dict(depth=4, vocab=32, epochs=2),
    "train": dict(steps=2, batch_size=3, width=8, layers=2, heads=3, mixtures=3,
                  mean_rank=3, audit_steps=2),
    "sample": dict(count=2, steps=28),
}

UNKNOWN_KEYS = ["bogus", "out", "dataset", "config", "beta1"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A class-labelled dataset, a codebook, a one-step checkpoint and a
    sample of it: the inputs every command reads."""
    d = tmp_path_factory.mktemp("fuzz-inputs")
    paths = {k: str(d / n) for k, n in (("dataset", "data.rgds"), ("codebook", "book.rvqc"),
                                        ("checkpoint", "m.ckpt"), ("generated", "gen.rgds"))}
    for argv in (("synth", "--out", paths["dataset"], "--family", "classes",
                  "--num-classes", "2", "--count", "48", "--seq-len", "3", "--dim", "3",
                  "--modes", "4", "--seed", "1"),
                 ("fit-rvq", "--dataset", paths["dataset"], "--out", paths["codebook"],
                  "--depth", "2", "--vocab", "4", "--seed", "1"),
                 ("train", "--dataset", paths["dataset"], "--codebook", paths["codebook"],
                  "--out", paths["checkpoint"],
                  *[a for k, v in BASE["train"].items() for a in (f"--{k.replace('_', '-')}", v)]),
                 ("sample", "--checkpoint", paths["checkpoint"], "--out", paths["generated"],
                  "--count", "2", "--steps", "2")):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(argv)) == 0, argv
    paths["tokens"] = paths["generated"] + ".tokens.txt"
    paths["junk"] = str(d / "junk.bin")
    with open(paths["junk"], "wb") as fh:
        fh.write(b"JUNK" + bytes(40))
    paths["missing"] = str(d / "missing.bin")
    return paths


def _check_bounds(command, argv):
    """Fail before any run whose resolved sizes pass the bounds."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = cli.build_parser().parse_args(argv)
        o = cli.resolve(args)
        if command == "sample":
            o = {**o, "steps": cli.sampler_config(o).steps}
    except (SystemExit, ValueError):
        return  # the run fails in the same place, before any work
    for name, bound in BOUNDS[command].items():
        value = o[name]
        value = max(value, default=0) if isinstance(value, tuple) else value
        assert value <= bound, (name, value, argv)


def _valid_artifacts(command, out, files):
    if command == "synth":
        assert data_mod.load_dataset(out).count >= 1
        assert data_mod.load_meta(out)["family"]
    elif command == "fit-rvq":
        assert rvq.load_codebook(out).depth >= 1
    elif command == "train":
        ckpt_mod.load_checkpoint(out)
        assert os.path.exists(out + ".log")
    elif command == "sample":
        ds = data_mod.load_dataset(out)
        header, grids = cli._load_token_dump(out + ".tokens.txt",
                                            ckpt_mod.load_checkpoint(files["checkpoint"]).codebook)
        assert header["grids"] == ds.count == len(grids)
        assert np.isfinite(ds.vectors).all()
    elif command == "eval" and out:
        assert os.path.getsize(out) > 0


def _run(argv):
    """Exit code, stdout, stderr lines and warnings of one in-process run;
    any exception but argparse's SystemExit escapes as a test failure."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, stdout.getvalue(), stderr.getvalue().splitlines(), caught


def _check(command, argv, rc, stdout, err, caught, out, names, files, outdir):
    made = sorted(os.listdir(outdir))
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, (argv, [str(w.message) for w in runtime])
    if rc == 0:
        _valid_artifacts(command, out, files)
        return
    assert made == [], (argv, made)
    assert caught == [], (argv, [str(w.message) for w in caught])
    if rc == 2:
        assert err and err[0].startswith("usage: rvqgen"), (argv, err)
        assert "error: argument " in err[-1], (argv, err)
        return
    assert rc == 1, (argv, rc)
    assert stdout == "", (argv, stdout)
    assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
    assert any(n in err[0] for n in names), (argv, err, names)


TABLES = {"synth": cli.SYNTH_OPTS, "fit-rvq": cli.FIT_OPTS, "train": cli.TRAIN_OPTS,
          "sample": cli.SAMPLE_OPTS}


def _option_draws(command):
    """{option: (value, in the config file?)} for up to four options, each
    value as likely valid as not."""
    def value(name):
        return st.one_of(st.sampled_from(VALID[command][name]), st.sampled_from(BAD))

    names = st.lists(st.sampled_from(sorted(TABLES[command])), max_size=4, unique=True)
    return names.flatmap(lambda chosen: st.fixed_dictionaries(
        {name: st.tuples(value(name), st.booleans()) for name in chosen}))


def _fuzz_option_command(command, files, draw, unknown):
    with tempfile.TemporaryDirectory(dir=os.path.dirname(files["dataset"])) as work:
        outdir = os.path.join(work, "out")
        os.mkdir(outdir)
        out = os.path.join(outdir, "result")
        flags, lines = [], []
        for name, (value, in_file) in draw.items():
            if in_file:
                lines.append(f"{name}={value}")
            else:
                flags.append(f"--{name.replace('_', '-')}={value}")
        for name, value in BASE[command].items():
            if name not in draw:
                flags.append(f"--{name.replace('_', '-')}={value}")
        lines += [f"{key}=1" for key in unknown]
        names = set(TABLES[command])
        if lines:
            cfg = os.path.join(work, "opts.cfg")
            with open(cfg, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            flags += ["--config", cfg]
            names.add(cfg)
        inputs = {"synth": [], "fit-rvq": ["--dataset", files["dataset"]],
                  "train": ["--dataset", files["dataset"], "--codebook", files["codebook"]],
                  "sample": ["--checkpoint", files["checkpoint"]]}[command]
        argv = [command, *inputs, "--out", out, *flags]
        _check_bounds(command, argv)
        rc, *result = _run(argv)
        assert rc != 0 or not unknown, argv
        _check(command, argv, rc, *result, out, names, files, outdir)


@pytest.mark.parametrize("command", sorted(VALID))
def test_fuzz_options(command, files):
    @settings(max_examples=120, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(draw=_option_draws(command),
           unknown=st.lists(st.sampled_from(UNKNOWN_KEYS), max_size=1))
    def fuzz(draw, unknown):
        _fuzz_option_command(command, files, draw, unknown)

    fuzz()


PATH_CHOICES = ["dataset", "generated", "codebook", "checkpoint", "tokens", "junk", "missing"]


def _path(right, optional=False):
    """The right kind of file half the time, else any file or none."""
    return st.one_of(st.just(right), st.sampled_from(PATH_CHOICES + [None] * optional))


@settings(max_examples=80, deadline=None, database=None)
@given(generated=_path("generated"), reference=_path("dataset"),
       codebook=_path("codebook", True), tokens=_path("tokens", True),
       report=st.booleans(), inspect=st.sampled_from(PATH_CHOICES))
def test_fuzz_path_commands(files, generated, reference, codebook, tokens, report, inspect):
    """`eval` and `inspect` take only paths: any mix of valid, wrong-kind,
    corrupt and missing files."""
    with tempfile.TemporaryDirectory(dir=os.path.dirname(files["dataset"])) as work:
        outdir = os.path.join(work, "out")
        os.mkdir(outdir)
        argv = ["inspect", files[inspect]]
        _check("inspect", argv, *_run(argv), None, {files[inspect]}, files, outdir)
        out = os.path.join(outdir, "report.txt") if report else None
        argv = ["eval", "--generated", files[generated], "--reference", files[reference]]
        argv += ["--codebook", files[codebook]] if codebook else []
        argv += ["--tokens", files[tokens]] if tokens else []
        argv += ["--out", out] if out else []
        names = {files[k] for k in (generated, reference, codebook, tokens) if k}
        names |= {"generated", "reference", "codebook", "tokens"}
        _check("eval", argv, *_run(argv), out, names, files, outdir)
