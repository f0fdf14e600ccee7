"""Committed format fixtures: files written by an earlier commit must still
load to the values they were written from, serialize back to the same
bytes and pass through the CLI. A layout change that keeps the version
number, or a new check that refuses yesterday's valid files, fails here.

The values are dyadic fractions, exact in float64, so the bytes depend on
the format alone. `codebook-v1.rvqc` was written by
`rvq.save_codebook(rvq.Codebook(EMBEDDINGS, SIGMA), path)`. A change of
layout bumps the version and either keeps reading the old fixture or
refuses it with one named error.
"""

import os

import numpy as np

from rvqgen import cli
from rvqgen import data as data_mod
from rvqgen import rvq

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
CODEBOOK = os.path.join(FIXTURES, "codebook-v1.rvqc")

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

