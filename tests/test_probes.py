"""The input of every large-d probe in ``tests/probes.py``, pinned by the
sha256 of the file it writes.  The probes themselves run only in CI; a
change to a builder, or to ``bench/gen.py`` ``conjugate`` or
``tests/oracles.py`` beneath one, fails here instead."""

import hashlib

import pytest

from probes import PROBES, input_text

INPUTS = {
    "C101+C101+I10": "8d488a6b6b0dff85de9250869c4be149b1ffc3588fc6bdf9e4b458df80e5ccd2",
    "I72+C79": "42beb198ba2dcdda6b0d9b0a611762638e58b1f5e3c3191edb4f346f62d7588c",
    "C307+C3": "75f3d41c3833375a1b8ed5eacad93ca245aaab28cb31630e213b091c4fcf6bfc",
    "U I72+C79 U^-1": "b142d4d7eb9e6e0e6670e290f5b3c28cea252db41cf3d2393b5278f472d12e02",
    "Hessenberg": "4b875011cf0f287d72557e4945fe5aa4de14fa33b646820e71f66868c05a6564",
    "cyclic": "b8257ea255896f85ce46528fddd35005776f27ca482a86895d8c712d9e9ffe14",
    "I400+C401": "0519b021688c27f14bf4ed29863c7a6e0b2ea0ce94789d3df88973568e205b43",
    "P^300 B P^-300": "d54009af9e43846322cfb8ac86cb2d83ecf9f4cd781bc8979e7e1dd51a332fc0",
    "P^1000 B P^-1000": "a4f9f272a810b03282e3f325123e8aad7027ce511b6bf7fb28e8e6763d150da2",
    "P^10 B P^-10": "c31a59263f78c91995bfeb3af12435cda7bece5f509f9caa7047e7f7dce8f5e3",
}


def test_every_probe_input_is_pinned():
    assert sorted(p.name for p in PROBES if p.build) == sorted(INPUTS)


@pytest.mark.parametrize("probe", [p for p in PROBES if p.build], ids=lambda p: p.name)
def test_probe_input_digest(probe):
    assert hashlib.sha256(input_text(probe.build()).encode()).hexdigest() == INPUTS[probe.name]
