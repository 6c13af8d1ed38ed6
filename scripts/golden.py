"""Golden outputs of the command line: check them, or rewrite them.

Two sh blocks run, each in an empty directory, with `cvsqi` bound to this
checkout's `python -m cvsqi.cli`:

  - the block under "## Command line" in README.md as printed, without its
    `cvsqi bench` line, since that prints timings, and with `--epochs 1`
    appended to its `cvsqi train` and `cvsqi train-manifold` lines
    (tests/golden/readme.json);
  - GEN_BLOCK, `cvsqi gen --seed 0` at its default subjects and duration
    with every output file: cycles, calibrations and one stream per subject
    (tests/golden/gen.json).

Every file a block writes, and its stdout, is reduced to a record:

  - "sha256": the text with each float token replaced by "#": the integer
    and text columns (ids, t_start_ms, labels, R-peak flags, JSON keys),
    compared exactly;
  - "values" (files of up to MAX_LISTED floats) or "stats" (larger ones):
    the float tokens in file order, compared within RTOL relative.  Model
    files are read with their base64 tensors decoded and the checksum,
    a hash of those floats, dropped.

Floats are not hashed, because BLAS builds round the last bits differently.
Training computes in float32 (nn.TRAIN_DTYPE), where OpenBLAS's kernels for
different CPUs (SkylakeX, Haswell, Sandybridge) round a matrix product
differently, and the trained models of the README block then differ by far
more than RTOL.  So the blocks run on OpenBLAS's Sandybridge kernel
(BLAS_KERNEL), which every x86-64 CPU with AVX runs and which gives the same
bits at 1, 2 and 4 threads (Haswell's do not); another BLAS ignores the
setting.
For stats, n and the non-finite tokens must match exactly; the exactly
rounded sums (math.fsum) of x, |x|, x*x and x times a ramp in (0, 1], and
the min and max, must agree within RTOL of their scale, which any per-value
agreement within RTOL implies.  In verdicts.csv the verdict column and every
score are held apart: a verdict may differ from the golden one only where the cycle's
residual lies within RTOL of the model's threshold.

    python3 scripts/golden.py          # check; exit 1 naming each difference
    python3 scripts/golden.py --write  # rewrite both records
"""
from __future__ import annotations

import argparse
import base64
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "readme.json"
GEN_GOLDEN = GOLDEN.with_name("gen.json")
GEN_BLOCK = ("cvsqi gen --seed 0 --out-cycles cycles.csv --out-calib calib.csv "
             "--out-stream stream.csv")
RTOL = 1e-12
BLAS_KERNEL = {"OPENBLAS_CORETYPE": "Sandybridge"}
MAX_LISTED = 100
FLOAT = re.compile(r"(?<![\w.])-?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+"
                   r"|inf|nan|Infinity|NaN)(?![\w.])")


def readme_block() -> str:
    """The README's command-line block without its `cvsqi bench` line, each
    `cvsqi train` line training for one epoch."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").split("\n")
    start = lines.index("## Command line")
    first = next(i for i in range(start, len(lines)) if lines[i].startswith("```sh"))
    last = next(i for i in range(first + 1, len(lines)) if lines[i].startswith("```"))
    return "\n".join(ln + " --epochs 1" if ln.startswith("cvsqi train") else ln
                     for ln in lines[first + 1:last] if not ln.startswith("cvsqi bench"))


def blocks() -> dict[Path, str]:
    """Each golden record's path and the block whose outputs it holds."""
    return {GOLDEN: readme_block(), GEN_GOLDEN: GEN_BLOCK}


def run_pipeline(workdir: Path, block: str) -> dict[str, str]:
    """Run block in workdir; the text of every file it writes, and "stdout"."""
    (workdir / "block.sh").write_text(block + "\n", encoding="utf-8")
    env = dict(os.environ, **BLAS_KERNEL, GOLDEN_PYTHON=sys.executable,
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(["bash", "-e", "-c",
                           'cvsqi() { "$GOLDEN_PYTHON" -m cvsqi.cli "$@"; }; . ./block.sh'],
                          cwd=workdir, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode:
        raise RuntimeError(f"block failed ({proc.returncode}):\n{proc.stderr}")
    texts = {p.name: p.read_text(encoding="utf-8") for p in sorted(workdir.iterdir())
             if p.name != "block.sh"}
    texts["stdout"] = proc.stdout
    return texts


def _decoded(node):
    """A model file's JSON with each base64 tensor as its list of floats."""
    if isinstance(node, dict):
        if node.keys() == {"shape", "data"}:
            floats = np.frombuffer(base64.b64decode(node["data"]), dtype="<f8")
            return {"shape": node["shape"], "values": floats.tolist()}
        return {k: _decoded(v) for k, v in node.items()}
    return [_decoded(v) for v in node] if isinstance(node, list) else node


def float_stats(values: list[float]) -> dict:
    finite = [(i, v) for i, v in enumerate(values) if math.isfinite(v)]
    n = len(values)
    return {"n": n,
            "nonfinite": [[i, repr(v)] for i, v in enumerate(values) if not math.isfinite(v)],
            "sum": math.fsum(v for _, v in finite),
            "abs": math.fsum(abs(v) for _, v in finite),
            "sq": math.fsum(v * v for _, v in finite),
            "ramp": math.fsum(v * ((i + 1) / n) for i, v in finite),
            "min": min((v for _, v in finite), default=0.0),
            "max": max((v for _, v in finite), default=0.0)}


def digest(name: str, text: str, threshold: float | None = None) -> dict:
    """The record of one output: its skeleton's sha256 and its floats."""
    entry = {}
    if name.endswith(".json") and text.lstrip().startswith("{"):
        doc = json.loads(text)
        doc.pop("checksum", None)
        text = json.dumps(_decoded(doc), sort_keys=True, indent=0)
    if name == "verdicts.csv":                 # t_start_ms, verdict, score
        rows = [line.split(",") for line in text.splitlines()]
        entry["threshold"] = threshold
        entry["verdicts"] = [int(r[1]) for r in rows]
        text = "".join(f"{r[0]},#,{r[2]}\n" for r in rows)
    floats = [float(tok) for tok in FLOAT.findall(text)]
    entry["sha256"] = hashlib.sha256(FLOAT.sub("#", text).encode("utf-8")).hexdigest()
    if len(floats) <= MAX_LISTED or "verdicts" in entry:
        entry["values"] = floats
    else:
        entry["stats"] = float_stats(floats)
    return entry


def record(texts: dict[str, str]) -> dict:
    threshold = (json.loads(texts["vae.json"])["payload"]["threshold"]
                 if "verdicts.csv" in texts else None)
    return {name: digest(name, text, threshold) for name, text in sorted(texts.items())}


def _close(got: float, want: float, scale: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return got == want or abs(got - want) <= RTOL * scale


def compare(got: dict, want: dict) -> list[str]:
    """Every difference between two records beyond what RTOL allows."""
    problems = [f"{name}: {'missing' if name in want else 'not in the golden file'}"
                for name in sorted(got.keys() ^ want.keys())]
    for name in sorted(got.keys() & want.keys()):
        g, w = got[name], want[name]
        if g["sha256"] != w["sha256"]:
            problems.append(f"{name}: integer or text content differs")
        if ("values" in g) != ("values" in w) or len(g.get("values", [])) != len(
                w.get("values", [])):
            problems.append(f"{name}: float count differs")
        elif "values" in w:
            for i, (a, b) in enumerate(zip(g["values"], w["values"])):
                if not _close(a, b, abs(b)):
                    problems.append(f"{name}: float {i} is {a!r}, golden {b!r}")
        else:
            gs, ws = g["stats"], w["stats"]
            if gs["n"] != ws["n"] or gs["nonfinite"] != ws["nonfinite"]:
                problems.append(f"{name}: float count or non-finite values differ")
            scales = {"sum": ws["abs"], "abs": ws["abs"], "ramp": ws["abs"],
                      "sq": 3.0 * ws["sq"], "min": abs(ws["min"]), "max": abs(ws["max"])}
            problems += [f"{name}: {key} of its floats is {gs[key]!r}, golden {ws[key]!r}"
                         for key, scale in scales.items()
                         if not _close(gs[key], ws[key], scale)]
        if "verdicts" in w:
            d = w["threshold"]
            for i, (a, b) in enumerate(zip(g["verdicts"], w["verdicts"])):
                if a != b and not abs(-w["values"][i] - d) <= RTOL * abs(d):
                    problems.append(f"{name}: verdict {i} is {a}, golden {b}, and its "
                                    f"residual is not within {RTOL:g} of {d!r}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--write", action="store_true", help="rewrite the golden records")
    args = ap.parse_args()
    failed = False
    for path, block in blocks().items():
        with tempfile.TemporaryDirectory() as tmp:
            got = record(run_pipeline(Path(tmp), block))
        if args.write:
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
            print(f"wrote {path.relative_to(ROOT)}: {len(got)} outputs")
            continue
        problems = compare(got, json.loads(path.read_text(encoding="utf-8")))
        for p in problems:
            print(p)
        print(f"{len(problems)} differences from {path.relative_to(ROOT)}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
