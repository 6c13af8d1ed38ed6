"""The README command-line pipeline and `cvsqi gen` at its defaults against
their golden records, and the rules of the comparison (scripts/golden.py;
`--write` regenerates the records)."""
import copy
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_readme_pipeline_matches_golden_record(tmp_path):
    got = golden.record(golden.run_pipeline(tmp_path, golden.readme_block()))
    want = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    assert golden.compare(got, want) == []


def test_gen_matches_golden_record(tmp_path):
    # cycles, calibrations and 20 per-subject streams, and the class table
    got = golden.record(golden.run_pipeline(tmp_path, golden.GEN_BLOCK))
    want = json.loads(golden.GEN_GOLDEN.read_text(encoding="utf-8"))
    assert len(want) == 23
    assert golden.compare(got, want) == []


def verdicts_record(scores, verdicts, threshold):
    text = "".join(f"{1000 * i},{v},{s!r}\n" for i, (s, v) in enumerate(zip(scores, verdicts)))
    return {"verdicts.csv": golden.digest("verdicts.csv", text, threshold)}


def test_verdict_may_flip_only_at_the_threshold():
    d = 6.0
    want = verdicts_record([-5.0, -d, -7.0], [1, 1, 0], d)
    assert golden.compare(verdicts_record([-5.0, -d, -7.0], [1, 0, 0], d), want) == []
    far = golden.compare(verdicts_record([-5.0, -d, -7.0], [0, 1, 0], d), want)
    assert len(far) == 1 and "verdict 0" in far[0]


def test_floats_compared_within_rtol_listed_and_as_stats():
    small = "a,1,0.25\nb,2,-3.5\n"
    large = "".join(f"s{i},{i},{0.001 * i!r}\n" for i in range(golden.MAX_LISTED + 1))
    for text in (small, large):
        want = {"f.csv": golden.digest("f.csv", text)}
        assert ("values" in want["f.csv"]) is (text is small)
        near = text.replace("-3.5", repr(-3.5 * (1 + 1e-15))).replace(
            ",0.05\n", f",{0.05 * (1 + 1e-15)!r}\n")
        assert golden.compare({"f.csv": golden.digest("f.csv", near)}, want) == []
        far = text.replace("-3.5", "-3.5000001").replace(",0.05\n", ",0.0500001\n")
        assert golden.compare({"f.csv": golden.digest("f.csv", far)}, want) != []
        ints = text.replace("b,2,", "b,3,").replace("s7,7,", "s7,8,")
        assert golden.compare({"f.csv": golden.digest("f.csv", ints)}, want) == [
            "f.csv: integer or text content differs"]


def test_a_missing_output_is_named():
    want = {"a.csv": golden.digest("a.csv", "1,0.5\n"), "b.csv": golden.digest("b.csv", "")}
    got = copy.deepcopy(want)
    del got["b.csv"]
    assert golden.compare(got, want) == ["b.csv: missing"]
