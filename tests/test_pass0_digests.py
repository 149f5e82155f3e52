"""The benchmark's pass-0 outputs at its held-out seed, pinned by digest.

Each workload's first deck at seed 7919 goes through the benchmark's own
request functions (``perfbench/pipeline.py``): ``verify`` for oracle-check,
``solve`` for the others.  The sha256 of the concatenated outputs, first 16
hex digits, is pinned: a change that alters any output byte of any request
fails here.  The digests last moved when every output line came to end in
``\n``, the header and rows included.
"""

import hashlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import pipeline  # noqa: E402  (perfbench is not a package)
import spans  # noqa: E402
import workloads  # noqa: E402

DIGESTS = {
    "cayley-kernels": "1292bfe757fa893f",
    "cayley-wide": "22e22edc39a41330",
    "tree-solve": "f726c53648beb263",
    "oracle-check": "ad82b0988338f635",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_pass0_outputs_repeat(workload):
    request = pipeline.verify if workload == "oracle-check" else pipeline.solve
    outputs = [request(doc, spans.NULL) for doc in workloads.deck(workload, 7919, 0)]
    digest = hashlib.sha256("".join(outputs).encode()).hexdigest()[:16]
    assert digest == DIGESTS[workload]
