"""The benchmark's traced run wraps module attributes of paclab by name
(perfbench/spans.py). A refactor that moves or renames one of them leaves
that seam unwrapped and its per-layer metrics at 0 without any error, so
every seam must still resolve: among them cli's compute_matrix,
synth_pac, normalize and argmax, and comodulogram's ThreadPoolExecutor
and FilterBank."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# the per-cell measure registry these seams name was replaced by per-column
# work before this check existed; the benchmark reads them as absent
KNOWN_ABSENT = {("paclab.comodulogram", f"_MEASURE_FNS[{m}]")
                for m in ("mca", "eps", "mvl", "cv", "kld")}


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_seam_resolves():
    spans = _spans()
    seams = {(module, path) for _, module, path, _ in spans.SEAMS}
    assert KNOWN_ABSENT <= seams
    unresolved = {s for s in seams if spans._resolve(*s) is None}
    assert unresolved == KNOWN_ABSENT

