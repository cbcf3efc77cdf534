"""Wire-byte regression: every bit-packing compressor's payload is pinned.

Round-trip tests only check that a compressor decodes what it encoded;
they would pass if the packed layout itself changed, silently breaking
interoperability with payloads produced by an older build.  Each
codec-using compressor compresses a fixed seeded set of tensors (two
rounds, so stateful compressors show their state), per tensor and, where
the class has its own kernel, fused; a SHA-256 covers every payload
part's dtype, shape and bytes plus the decompressed tensors.  Two checks
use that digest:

* Against the reference codec, in one process: the same run is repeated
  with every ``repro`` module's binding of ``pack_bits``/``unpack_bits``/
  ``pack_signs``/``unpack_signs`` swapped for the bit-by-bit oracle of
  ``tests/tensorlib/test_packing.py``.  Both runs share the float
  arithmetic, so this holds on any machine and for any input.
* Against digests recorded with the packer that preceded the vectorized
  codec.  These inputs are multiples of 1/8 in [-4, 4] so that no float
  result depends on the machine: every sum and sum of squares (such as
  the BLAS dot behind QSGD's norm, whose accumulation order varies with
  the CPU) is exact in any order, and ``log2``/``exp2`` only meet
  exact powers of two or values far from one.  Top-k selection would
  break ties among equal magnitudes by the sort implementation, so
  qsparse is pinned with random-k selection here.
"""

import hashlib
import sys

import numpy as np
import pytest

from repro.core import BucketSegment, FusionBucket, create
from repro.core.api import Compressor
from repro.tensorlib import packing
from repro.tensorlib.indices import decode_indices, encode_indices
from tests.tensorlib.test_packing import (
    reference_pack_bits,
    reference_pack_signs,
    reference_unpack_bits,
    reference_unpack_signs,
)

SHAPES = ((1,), (7,), (8,), (33,), (5, 7), (256,), (3, 4, 5), (768,))

#: (registry name, constructor params); the extra widths reach the 1-bit
#: and the >8-bit (uint16) code paths of the packer.
CASES = (
    ("qsgd", {}),
    ("qsgd", {"levels": 1}),
    ("qsgd", {"levels": 1000}),
    ("qsparse", {"ratio": 0.5}),
    ("qsparse", {"ratio": 0.5, "selection": "randomk"}),
    ("signsgd", {}),
    ("efsignsgd", {}),
    ("signum", {}),
    ("terngrad", {}),
    ("threelc", {}),
    ("inceptionn", {}),
    ("onebit", {}),
    ("lpcsvrg", {}),
    ("lpcsvrg", {"bit_width": 7}),
    ("sketchml", {}),
    ("sketchml", {"num_buckets": 1024}),
    ("natural", {}),
)

REFERENCE_CODEC = {
    "pack_bits": reference_pack_bits,
    "unpack_bits": reference_unpack_bits,
    "pack_signs": reference_pack_signs,
    "unpack_signs": reference_unpack_signs,
}


def _tensors(round_index: int, dyadic: bool) -> list[np.ndarray]:
    rng = np.random.default_rng(1000 + round_index)
    out = []
    for shape in SHAPES:
        tensor = rng.standard_normal(shape).astype(np.float32)
        if dyadic:
            tensor = np.clip(np.round(tensor * 8), -32, 32) / np.float32(8)
        flat = tensor.reshape(-1)
        flat[2::5] = 0.0  # exact zeros: sign and sparsity edge cases
        flat[3::11] = -0.0
        out.append(tensor)
    return out


def _bucket() -> FusionBucket:
    segments, offset = [], 0
    for index, shape in enumerate(SHAPES):
        size = int(np.prod(shape))
        segments.append(BucketSegment(f"t{index}", shape, offset, size))
        offset += size
    return FusionBucket(0, tuple(segments))


def _update(digest, array) -> None:
    array = np.ascontiguousarray(array)
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())


def _has_fused_kernel(compressor) -> bool:
    return type(compressor).compress_fused is not Compressor.compress_fused


def payload_digest(name: str, params: dict, fused: bool, dyadic: bool) -> str:
    """SHA-256 over two rounds of payloads and their decompressions."""
    compressor = create(name, seed=3, **params)
    digest = hashlib.sha256()
    bucket = _bucket()
    for round_index in range(2):
        tensors = _tensors(round_index, dyadic)
        if fused:
            buffer = np.concatenate([t.reshape(-1) for t in tensors])
            compressed = compressor.compress_fused(buffer, bucket)
            restored = [compressor.decompress_fused(compressed)]
            parts = compressed.payload
        else:
            parts, restored = [], []
            for index, tensor in enumerate(tensors):
                compressed = compressor.compress(tensor, f"t{index}")
                parts.extend(compressed.payload)
                restored.append(compressor.decompress(compressed))
        for part in parts:
            _update(digest, part)
        for tensor in restored:
            _update(digest, tensor)
    return digest.hexdigest()


def bitmap_digest() -> str:
    """SHA-256 of the ``indices`` bitmap encoding over several densities."""
    rng = np.random.default_rng(5)
    digest = hashlib.sha256()
    for universe in (1, 9, 64, 1000):
        for density in (0.0, 0.1, 0.5, 1.0):
            indices = np.flatnonzero(rng.random(universe) < density)
            buffer, _ = encode_indices(indices, universe, mode="bitmap")
            _update(digest, buffer)
            decoded = decode_indices(buffer, "bitmap", universe, indices.size)
            assert np.array_equal(decoded, indices)
    return digest.hexdigest()


def _case_id(name: str, params: dict, fused: bool) -> str:
    words = [name, *(f"{k}={v}" for k, v in sorted(params.items()))]
    return "-".join(words + (["fused"] if fused else []))


# Recorded with the bit-by-bit uint64 packer that preceded the
# vectorized codec, on the dyadic inputs; any change here is a
# wire-format change.
EXPECTED = {
    "qsgd":
        "d6879f94cc3cf22f44160444e29a71eced26e55648c7fd0bc2385f45eb99acf6",
    "qsgd-fused":
        "d1ad742a1c7956564ea636e542019d8dc20f4d4a45f37a8eceafcab237ab38b2",
    "qsgd-levels=1":
        "0e7c345b8523f2379cfdc2e01db6249871314597265f900ebd2709478d44c03c",
    "qsgd-levels=1-fused":
        "f0f94823efcc5e03bbdac6d7e83c6a152829f498d91f37cf6d7ffe1e51d288f3",
    "qsgd-levels=1000":
        "29d265e0b411d76c0989df5641f972fdef096541fdda01f04457a74522e1f6e2",
    "qsgd-levels=1000-fused":
        "30ae3d1b2d1397661801334accdc013120a6d2de8d3df6ac8efe39077f6ddba2",
    "qsparse-ratio=0.5-selection=randomk":
        "2bc7708c4aa4a6e78c5ee922810bd32cae4e85ad2c5a7b2b46495110e5b95547",
    "signsgd":
        "403255d705e3348d7e56610782700617fdfdfd9711373d66cca6f2ad9c75f120",
    "signsgd-fused":
        "276c6eb5202a32b989f551e3a7160e9fe7bd465986623ec9cc53ffae71141a96",
    "efsignsgd":
        "d6f639c0ace1dfa58967279e8506dddf196b84039b9b3751f6ef9601feadc332",
    "efsignsgd-fused":
        "3b6f8d57b386f98d07a9b70bff80975e154219a7a0a4328128194076aa73e187",
    "signum":
        "9e482d0b721bbf0d01fdc44bc66869e64bbfe580b9cfe2b1d5320e4d3c2d2693",
    "terngrad":
        "a1e257ae00bbf401fcf93f2e6d3db6875f34a83a88a9172bb9eb7857b64fadcf",
    "terngrad-fused":
        "47673a2c733a31c19027ab749c1d82f25394225160ff1f1d2ac04eefe956b0c2",
    "threelc":
        "af226da777fd145e904ada58a26d1a05719d5d8e895faef84b6aadb0a540a0e5",
    "inceptionn":
        "34fcc01db7a98b09eca27f011cd21fa32bb96150e3233c92883ba6804a53e8e3",
    "onebit":
        "e15c15147b8c22790581341b5751fc45dda69a73fb2f8494e8ee0669dc304deb",
    "lpcsvrg":
        "44ce2936024036975d9f62710536d94abc878b11a51f3f8c165ab16251791d4e",
    "lpcsvrg-bit_width=7":
        "3cba19ce3c0cb1f6807175882a1fb5e51725a57f330e9ed0656cdfdfec612abf",
    "sketchml":
        "378b01e7ca2a2b4c5a9cc29523c9ff35839717ffe4ee3cbfba07205e55c88692",
    "sketchml-num_buckets=1024":
        "4033d33062d7f3d90af8d6ec1ae339b3291ef0b2ead1091a33afbb0a0fa6f4db",
    "natural":
        "efaa371269089ac4c7a43f6a9418e1579a15803a391c7aff0404c36e0d680356",
}

EXPECTED_BITMAP = (
    "9b1944a22b3a8ffe86048d42255e597e8ce5175eaf2b3019fd189ac718636686"
)


def _all_cases():
    for name, params in CASES:
        yield name, params, False
        if _has_fused_kernel(create(name, **params)):
            yield name, params, True


ALL_CASES = list(_all_cases())
#: Top-k breaks ties among the dyadic inputs' equal magnitudes by the
#: sort implementation, so it is checked against the oracle only.
PINNED = [
    case
    for case in ALL_CASES
    if case[0] != "qsparse" or case[1].get("selection") == "randomk"
]


def _use_reference_codec(monkeypatch) -> set[str]:
    """Swap every ``repro`` module's codec bindings for the oracle.

    Returns the names of the modules that were patched.
    """
    patched = set()
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro.") or module is packing:
            continue
        for attr, reference in REFERENCE_CODEC.items():
            if getattr(module, attr, None) is getattr(packing, attr):
                monkeypatch.setattr(module, attr, reference)
                patched.add(module_name)
    return patched


@pytest.mark.parametrize(
    "name,params,fused", ALL_CASES, ids=[_case_id(*c) for c in ALL_CASES]
)
def test_payload_bytes_match_reference_codec(name, params, fused, monkeypatch):
    vectorized = payload_digest(name, params, fused, dyadic=False)
    patched = _use_reference_codec(monkeypatch)
    assert type(create(name, **params)).__module__ in patched
    assert payload_digest(name, params, fused, dyadic=False) == vectorized


@pytest.mark.parametrize(
    "name,params,fused", PINNED, ids=[_case_id(*c) for c in PINNED]
)
def test_payload_bytes_match_recorded_digest(name, params, fused):
    assert payload_digest(name, params, fused, dyadic=True) == EXPECTED[
        _case_id(name, params, fused)
    ]


def test_index_bitmap_matches_reference_codec(monkeypatch):
    vectorized = bitmap_digest()
    assert "repro.tensorlib.indices" in _use_reference_codec(monkeypatch)
    assert bitmap_digest() == vectorized


def test_index_bitmap_matches_recorded_digest():
    assert bitmap_digest() == EXPECTED_BITMAP
