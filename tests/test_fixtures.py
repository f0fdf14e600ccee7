"""Committed format fixtures: files written by an earlier commit must still
load to the values they were written from, serialize back to the same
bytes and pass through the CLI. A layout change that keeps the version
number, or a new check that refuses yesterday's valid files, fails here.

The values are dyadic fractions, exact in float64, so the bytes depend on
the format alone. `codebook-v1.rvqc` was written by
`rvq.save_codebook(rvq.Codebook(EMBEDDINGS, SIGMA), path)`,
`checkpoint-v1.rgck` by `checkpoint.save_checkpoint(fixture_checkpoint(), path)`,
`dataset-v1.rgds` by `data.save_dataset(data.Dataset(VECTORS, LABELS,
num_classes=2), path)` and the token dump `grids.tokens.txt` (the text
file `rvqgen sample` writes beside its dataset) by
`data.atomic_write(path, cli.token_dump_bytes(GRIDS, 6, 3))`.
A change of layout bumps the version and either keeps reading the old
fixture or refuses it with one named error.

A corruption fuzz flips, truncates and overwrites bytes of each fixture
and runs the commands that read it through `cli.main`: each exits 0, 1
with one `error:` line, or 2 for `eval`'s `FAILED`, and none raises.
"""

import contextlib
import io
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rvqgen import checkpoint as ckpt_mod
from rvqgen import cli
from rvqgen import data as data_mod
from rvqgen import evaluate as ev
from rvqgen import rvq
from rvqgen.backbone import BackboneConfig, parameter_specs
from rvqgen.trainer import TrainConfig

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
CODEBOOK = os.path.join(FIXTURES, "codebook-v1.rvqc")
CHECKPOINT = os.path.join(FIXTURES, "checkpoint-v1.rgck")
DATASET = os.path.join(FIXTURES, "dataset-v1.rgds")
TOKENS = os.path.join(FIXTURES, "grids.tokens.txt")

# D=2, V=4, H=3; the second table holds the zero codeword, so no vector's
# error grows from depth 1 to depth 2 and eval's MSE check passes on any data
EMBEDDINGS = np.array([
    [[1.0, 0.0, -0.5], [0.0, 1.25, 0.0], [-1.5, -0.5, 0.75], [0.25, -2.0, 1.0]],
    [[0.0, 0.0, 0.0], [0.125, -0.25, 0.0], [-0.375, 0.5, 0.0625], [0.5, 0.0, -0.125]],
])
SIGMA = np.array([1.0, 0.1875])


def test_codebook_fixture_loads_to_its_values_and_bytes():
    book = rvq.load_codebook(CODEBOOK)
    assert book.embeddings.tobytes() == EMBEDDINGS.tobytes()
    assert book.sigma.tobytes() == SIGMA.tobytes()
    with open(CODEBOOK, "rb") as fh:
        blob = fh.read()
    assert len(blob) == 20 + 8 * (EMBEDDINGS.size + SIGMA.size)
    assert rvq.codebook_to_bytes(book) == blob
    assert rvq.codebook_to_bytes(rvq.Codebook(EMBEDDINGS, SIGMA)) == blob


def test_codebook_fixture_passes_inspect_and_eval(tmp_path, capsys):
    assert cli.main(["inspect", CODEBOOK]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"kind=codebook version={rvq.CODEBOOK_VERSION} depth=2 vocab=4 dim=3",
        "sigma=1,0.1875"]
    paths = []
    for name, seed in (("gen", 1), ("ref", 2)):
        ds, _ = data_mod.synthesize("grid", 64, 2, 3, modes=4, seed=seed)
        paths.append(str(tmp_path / f"{name}.rgds"))
        data_mod.save_dataset(ds, paths[-1])
    report = tmp_path / "report.txt"
    assert cli.main(["eval", "--generated", paths[0], "--reference", paths[1],
                     "--codebook", CODEBOOK, "--out", str(report)]) == 0
    assert "recon_mse_by_depth=" in report.read_text()



# the smallest backbone on the codebook's geometry: 1 layer, width 2, 2
# components of mean rank 1, so 129 floats per group
BACKBONE = BackboneConfig(seq_len=2, depth=2, vocab=4, latent_dim=3, width=2, layers=1,
                          heads=1, mixtures=2, mean_rank=1)
TRAIN = TrainConfig(steps=4, batch_size=2, warmup=1, seed=5)


def dyadic(shape, offset):
    """Eighths in [-1/2, 1/2], a fixed pattern per offset."""
    n = math.prod(shape)
    return (((np.arange(n) * 5 + offset) % 9 - 4) / 8).reshape(shape)


def fixture_checkpoint():
    """The values `checkpoint-v1.rgck` holds: every parameter named by
    `parameter_specs` (the head's `basis.M` and `basis.s` among them) in
    each of the four groups, with squares as the second moments."""
    specs = parameter_specs(BACKBONE)
    groups = [{name: dyadic(shape, i + 7 * g) for i, (name, shape, _) in enumerate(specs)}
              for g in range(3)]
    return ckpt_mod.Checkpoint(
        backbone_config=BACKBONE, train_config=TRAIN, step=3,
        rng_state=np.random.default_rng(5).bit_generator.state,
        codebook=rvq.Codebook(EMBEDDINGS, SIGMA), params=groups[0], ema=groups[1],
        opt_m=groups[2], opt_v={k: v * v for k, v in groups[2].items()})


def test_checkpoint_fixture_loads_to_its_values_and_bytes():
    want = fixture_checkpoint()
    got = ckpt_mod.load_checkpoint(CHECKPOINT)
    assert got.backbone_config == want.backbone_config
    assert got.train_config == want.train_config
    assert (got.step, got.rng_state) == (want.step, want.rng_state)
    assert got.codebook.embeddings.tobytes() == EMBEDDINGS.tobytes()
    assert got.codebook.sigma.tobytes() == SIGMA.tobytes()
    for group in ("params", "ema", "opt_m", "opt_v"):
        have, expect = getattr(got, group), getattr(want, group)
        assert sorted(have) == sorted(expect), group
        for name in expect:
            assert have[name].shape == expect[name].shape, (group, name)
            assert have[name].tobytes() == expect[name].tobytes(), (group, name)
    assert {"basis.M", "basis.s"} <= got.params.keys()
    with open(CHECKPOINT, "rb") as fh:
        blob = fh.read()
    assert got.to_bytes() == blob
    assert want.to_bytes() == blob


def test_checkpoint_fixture_passes_inspect_and_sample(tmp_path, capsys):
    assert cli.main(["inspect", CHECKPOINT]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"kind=checkpoint version={ckpt_mod.CHECKPOINT_VERSION} step=3",
        "backbone: seq_len=2 depth=2 vocab=4 dim=3 width=2 layers=1 mixtures=2",
        "train: steps=4 lr=0.0003 schedule=circle seed=5",
        "arrays=32 ema=32"]
    out = tmp_path / "gen.rgds"
    for weights in ("ema", "raw"):
        assert cli.main(["sample", "--checkpoint", CHECKPOINT, "--out", str(out),
                         "--count", "2", "--steps", "3", "--weights", weights]) == 0
        assert data_mod.load_dataset(out).vectors.shape == (2, 2, 3)
        dump = (tmp_path / "gen.rgds.tokens.txt").read_text().splitlines()
        assert dump[0] == "# forward_passes=6 steps=3 grids=2 seq_len=2 depth=2"
        assert len(dump) == 3


# 8 records of 2x3 eighths in [-1, 1]; labels up to num_classes = 2
VECTORS = ((np.arange(48) * 37 % 17 - 8) / 8).reshape(8, 2, 3)
LABELS = np.array([0, 1, 2, 1, 0, 2, 2, 1], dtype=np.uint32)
# 3 grids of the codebook's geometry (seq_len 2, depth 2, tokens in [1, 4])
GRIDS = np.array([[[1, 2], [4, 1]], [[3, 3], [2, 4]], [[4, 1], [1, 2]]])


def test_dataset_fixture_loads_to_its_values_and_bytes():
    ds = data_mod.load_dataset(DATASET)
    assert ds.vectors.tobytes() == VECTORS.tobytes()
    assert ds.labels.dtype == np.uint32 and ds.labels.tobytes() == LABELS.tobytes()
    assert ds.num_classes == 2
    with open(DATASET, "rb") as fh:
        blob = fh.read()
    assert len(blob) == 24 + 8 * (4 + 8 * VECTORS[0].size)
    assert data_mod.dataset_to_bytes(ds) == blob
    assert data_mod.dataset_to_bytes(data_mod.Dataset(VECTORS, LABELS, 2)) == blob


def test_token_dump_fixture_loads_to_its_grids_and_bytes():
    header, grids = cli._load_token_dump(TOKENS, rvq.Codebook(EMBEDDINGS, SIGMA))
    assert header == {"forward_passes": 6, "steps": 3, "grids": 3, "seq_len": 2, "depth": 2}
    assert grids.dtype == np.int64 and np.array_equal(grids, GRIDS)
    with open(TOKENS, "rb") as fh:
        blob = fh.read()
    assert cli.token_dump_bytes(grids, header["forward_passes"], header["steps"]) == blob
    assert cli.token_dump_bytes(GRIDS, 6, 3) == blob


def test_dataset_and_token_dump_fixtures_pass_inspect_and_eval(tmp_path, capsys):
    assert cli.main(["inspect", DATASET]) == 0
    assert cli.main(["inspect", TOKENS]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"kind=dataset version={data_mod.DATASET_VERSION} count=8 seq_len=2 dim=3 "
        "num_classes=2",
        "kind=tokens grids=3 seq_len=2 depth=2",
        "header: forward_passes=6 steps=3 grids=3 seq_len=2 depth=2"]
    other = str(tmp_path / "other.rgds")
    data_mod.save_dataset(data_mod.synthesize("grid", 64, 2, 3, modes=4, seed=3)[0], other)
    # the fixture as generated set, read with the dump, and as reference set
    for generated, reference in ((DATASET, other), (other, DATASET)):
        report = tmp_path / "report.txt"
        assert cli.main(["eval", "--generated", generated, "--reference", reference,
                         "--codebook", CODEBOOK, "--tokens", TOKENS,
                         "--out", str(report)]) == 0
        lines = report.read_text().splitlines()
        assert "forward_pass_count=6" in lines
        entropy = ev.codebook_usage_entropy(GRIDS.reshape(-1, 2), 4)
        assert f"codebook_usage_entropy={','.join(f'{e:.12g}' for e in entropy)}" in lines


# ---------------------------------------------------------------------------
# corruption fuzz: flipped, truncated and overwritten bytes of each fixture

# overwrites: raw bytes, or the characters the text and JSON parts hold
CHUNKS = st.one_of(st.binary(min_size=1, max_size=8),
                   st.text("0123456789-.e# =\n", min_size=1, max_size=8).map(str.encode))


def header_size(fixture, blob):
    """Bytes before the fixture's values: the fixed header (and the JSON
    header and codebook of a checkpoint), or a token dump's '#' line."""
    if fixture == TOKENS:
        return blob.index(b"\n") + 1
    if fixture == CHECKPOINT:
        book = rvq.codebook_to_bytes(rvq.Codebook(EMBEDDINGS, SIGMA))
        return 16 + int.from_bytes(blob[8:16], "little") + len(book)
    return {CODEBOOK: 20, DATASET: 24}[fixture]


@st.composite
def corrupted(draw, blob, head):
    """`blob` after one to three byte edits: a bit flip, a truncation or an
    overwrite of up to 8 bytes. Half the edits fall in the first `head`
    bytes, where the headers are, and half after them, among the values."""
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        if not data:
            break
        n = len(data)
        i = draw(st.one_of(st.integers(0, min(head, n) - 1), st.integers(min(head, n - 1), n - 1)))
        kind = draw(st.sampled_from(["flip", "truncate", "overwrite"]))
        if kind == "flip":
            data[i] ^= 1 << draw(st.integers(0, 7))
        elif kind == "truncate":
            del data[i:]
        else:
            chunk = draw(CHUNKS)[:n - i]
            data[i:i + len(chunk)] = chunk
    return bytes(data)


def _quiet_main(argv):
    """Exit code and stderr lines of one in-process `cli.main` run; any
    exception escapes as a test failure."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    return rc, stderr.getvalue().splitlines()


def _runs(fixture, path, out):
    """(argv, allowed exit codes) of every command the fixture feeds: each
    is inspected; the checkpoint samples (its step 1 of 3 reveals nothing),
    and the codebook and the token dump are evaluated, where `FAILED`
    exits 2."""
    runs = [(["inspect", path], (0, 1))]
    if fixture == CHECKPOINT:
        runs.append((["sample", "--checkpoint", path, "--out", out, "--count", "1",
                      "--steps", "3"], (0, 1)))
    if fixture in (CODEBOOK, TOKENS):
        book, dump = (path, []) if fixture == CODEBOOK else (CODEBOOK, ["--tokens", path])
        runs.append((["eval", "--generated", DATASET, "--reference", DATASET,
                      "--codebook", book, *dump, "--out", out], (0, 1, 2)))
    return runs


@pytest.mark.parametrize("fixture", [CODEBOOK, CHECKPOINT, DATASET, TOKENS],
                         ids=["rvqc", "rgck", "rgds", "tokens"])
def test_a_corrupted_fixture_exits_cleanly(fixture):
    with open(fixture, "rb") as fh:
        blob = fh.read()

    @settings(max_examples=40, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutated=corrupted(blob, header_size(fixture, blob)))
    def fuzz(mutated):
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, os.path.basename(fixture))
            with open(path, "wb") as fh:
                fh.write(mutated)
            for argv, allowed in _runs(fixture, path, os.path.join(work, "out")):
                rc, err = _quiet_main(argv)
                assert rc in allowed, (argv, rc, err)
                if rc == 1:
                    assert len(err) == 1 and err[0].startswith("error: "), (argv, err)

    fuzz()
