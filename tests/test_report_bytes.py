"""Report bytes pinned by digest.

The digests were recorded at commit 43b5dba, whose kernels loop densely over
every index tuple through checked indexing. The zero-skipping flat-offset
kernels must reproduce those reports byte for byte: exact arithmetic leaves
no room for a sum taken in another order to differ.
"""

import hashlib

import pytest

from sscurv import BUILTIN_NAMES, FuzzConfig, builtin, fuzz, run_suite
from sscurv.report import emit_report

SUITE_DIGESTS = {
    ("example1", "json"): "dffb31a8a7158a07f97a892de06b7ba7df54faabfec66c01516e56c30bcc95c7",
    ("example1", "text"): "ba5c3d1a292cd023d113881bedc3682befca5b23eccb621d5ce51c000eac2ae1",
    ("h2xr", "json"): "7ae6541a07b4318138653976a6c9aa3ea553ecacb11ae4fbfa286f6b4ef195d6",
    ("h2xr", "text"): "f36e4095e917b403323590ab35a41604a3d6c198697067782075c9d9985ffc1e",
    ("flat", "json"): "8d6ffab7b7b8a5c5f18ef4380ff497135ecb9cb953bb2ccc52c8a042ad89e004",
    ("flat", "text"): "5084a8abb8d99a5e2ceeec7b365499ddfa29c4cb48050cfec7886db11fbe2d83",
}

# Seed 42, 100 candidates per stream (40 general and 9 parallel accepted).
FUZZ_DIGESTS = {
    (False, "json"): "1771b36d676323c1e254473042edac758125ebba7e07fcc6f9efb60f9a3bcc07",
    (False, "text"): "cb264c6b9ad85fcc8e66086950b95cd9bec8f5ef67c71d1d0300634114ce9345",
    (True, "json"): "e632951593c3177770ab33e4de35ef206935f543d1f466bed73e28d37a7d4ad3",
    (True, "text"): "00bf7487b3abe967e9c035085672eeed1903c754e44e68dd387cb95accda1177",
}


def digest(doc, fmt):
    return hashlib.sha256(emit_report(doc, fmt).encode()).hexdigest()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_suite_report_bytes(name):
    doc = run_suite(builtin(name), "all")
    for fmt in ("json", "text"):
        assert digest(doc, fmt) == SUITE_DIGESTS[name, fmt], (name, fmt)


@pytest.mark.parametrize("parallel", (False, True))
def test_fuzz_report_bytes(parallel):
    doc = fuzz(FuzzConfig(count=100, seed=42, require_parallel_xi=parallel))
    for fmt in ("json", "text"):
        assert digest(doc, fmt) == FUZZ_DIGESTS[parallel, fmt], (parallel, fmt)
