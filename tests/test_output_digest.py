"""Byte identity as a check: each layer of ``output_digest.py`` hashes to
its committed digest.

A refactor keeps every output bit, so it never re-records
``output_digests.json``.  A change of model re-records only the layers it
moves, and says which and why beside the goldens it re-records.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import output_digest

PINNED = json.loads(Path(__file__).with_name("output_digests.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def computed() -> dict[str, tuple[str, int]]:
    return output_digest.digests()


def test_every_layer_is_pinned(computed):
    assert set(computed) == set(PINNED)


@pytest.mark.parametrize("layer", sorted(PINNED))
def test_layer_digest_is_pinned(computed, layer):
    assert computed[layer][0] == PINNED[layer]
