"""What the deleted reference implementations computed, kept as data.

Until the simulator had one execution path, the differential suites ran
each workload twice — on the scalar loops and on the vectorized hot paths,
or through the inline lockstep step driver and through the event engine —
and asserted byte-identical output.  ``tests/golden/scalar_reference.json``
holds what those reference runs produced for the suites' own workloads; it
was recorded while both implementations still existed, and each value was
checked to be identical on both before it was written.  The suites now run
the one remaining path and compare against these values.

The file has one section per suite.  Digests are sha256 of sorted-key JSON
(:func:`sha256_json`), of a report's text (:func:`sha256_text`) or the
canonical trace digest.  A mismatch means a
simulated number moved: fix the change, or — if the move is intended —
write the new value into the file and say why in the commit.
"""

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict

REFERENCE_FILE = (
    Path(__file__).resolve().parent.parent / "golden" / "scalar_reference.json"
)


def reference(suite: str) -> Dict[str, Any]:
    """The recorded reference values of one suite."""
    return json.loads(REFERENCE_FILE.read_text())[suite]


def sha256_text(text: str) -> str:
    """sha256 of ``text`` encoded as UTF-8."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_json(value: Any) -> str:
    """sha256 of ``value`` as sorted-key JSON."""
    return sha256_text(json.dumps(value, sort_keys=True))


def metrics_digest(metrics) -> str:
    """Digest of a ``RunMetrics``, extras included."""
    return sha256_json(dataclasses.asdict(metrics))
