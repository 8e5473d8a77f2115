"""The usage example of ``README.md`` runs as written, so the documented
usage cannot drift from the API."""

import re
from pathlib import Path

import numpy as np

from protoreg import DisplacementField, evaluate, io
from protoreg.phantom import generate, three_blob_spec

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_example_registers_a_pair_read_from_disk(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    pair = generate(three_blob_spec(seed=0))
    for name in ("fixed", "moving", "fixed_labels", "moving_labels"):
        io.write_volume(getattr(pair, name), tmp_path / f"{name}.nii.gz")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    field = io.read_volume(tmp_path / "field.nii.gz")
    assert isinstance(field, DisplacementField)
    assert np.array_equal(field.u, namespace["result"].field.u.astype(np.float32))
    # the example registers: Dice rises over the unregistered pair's
    assert namespace["report"].avg_dsc > evaluate(pair.fixed_labels, pair.moving_labels).avg_dsc
