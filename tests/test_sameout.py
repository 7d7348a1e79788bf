"""The output comparison of tools/sameout.py."""

import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "sameout", Path(__file__).resolve().parents[1] / "tools" / "sameout.py"
)
sameout = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sameout)

MANIFEST = {
    "config": {"mode": "edit-dist", "output_dir": "out"},
    "package_version": "0.1.0",
    "selected_scale": 0.3,
    "peak_rss_mb": 80.5,
    "workers": 2,
    "blas_threads": 1,
    "worker_peak_rss_mb": None,
    "stage_seconds": [0.4],
    "point_seconds": [0.1, 0.2],
}


def test_volatile_fields_are_ignored():
    change = dict(MANIFEST, peak_rss_mb=81.0, workers=1, blas_threads=None,
                  worker_peak_rss_mb=70.0, stage_seconds=[0.5], point_seconds=[0.3, 0.1],
                  edit_model_path="elsewhere/edit_model.tsv")
    assert sameout.manifest_differences(MANIFEST, change) == []


def test_result_and_config_fields_are_compared():
    change = dict(MANIFEST, selected_scale=0.6, config={"mode": "edit-dist", "output_dir": "x"})
    assert sameout.manifest_differences(MANIFEST, change) == ["config", "selected_scale"]


def test_a_field_on_one_side_only_differs():
    change = dict(MANIFEST, test_p_at_1=1.0)
    del change["selected_scale"]
    assert sameout.manifest_differences(MANIFEST, change) == ["selected_scale", "test_p_at_1"]
    # Even when the present side holds None.
    assert sameout.manifest_differences({"x": None}, {}) == ["x"]


def test_output_directories_compared_byte_for_byte(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for out, lexicon, manifest in ((parent, "a\tb\n", MANIFEST),
                                   (change, "a\tc\n", dict(MANIFEST, peak_rss_mb=1.0))):
        out.mkdir()
        (out / "lexicon.tsv").write_text(lexicon)
        (out / "trace.tsv").write_text("iteration\n")
        (out / "manifest.json").write_text(json.dumps(manifest))
    (parent / "edit_model.tsv").write_text("version 1\n")
    assert sameout.differences(parent, change) == [
        "edit_model.tsv: only in the parent", "lexicon.tsv differs",
    ]
    assert sameout.differences(parent, parent) == []
    # A run that wrote nothing differs by every file of the other side.
    assert len(sameout.differences(tmp_path / "none", change)) == 3


def test_runs_compare_stdout_and_exit_code(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "sweep_report.tsv").write_text("scale\tmean\truns\n")
    parent = (0, b"c=0.2\t1.000000\nselected c=0.2\n", out)
    assert sameout.run_differences(parent, parent) == []
    # A sweep that prints another mean, and one that fails, with the same files.
    assert sameout.run_differences(parent, (0, b"c=0.2\t0.990000\nselected c=0.2\n", out)) == [
        "stdout differs",
    ]
    assert sameout.run_differences(parent, (2, b"", out)) == [
        "stdout differs", "exit code 0 -> 2",
    ]
