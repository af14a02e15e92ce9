"""Behaviour lock: sha256 digests of CLI output bytes for fixed seeds.

A refactor that must not change behaviour keeps every digest below. A change
that alters output on purpose updates the affected digests and names them in
CHANGES.md. To print the current digests, run this file as a script from the
repository root: ``PYTHONPATH=src python tests/test_behaviour_lock.py``.

``CODEC_DIGESTS`` pins the FDTS bytes ``serialize_stream`` writes: every day
stream of five 21-day scenarios, and one stream whose ids sit on each varint
length boundary.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np
import pytest

from duplexmem import cli
from duplexmem.harness import ScenarioSpec, build_day_stream, synth_scenario
from duplexmem.stream import CHANNELS, DIALOG_START, TokenStream, parse_stream, serialize_stream

# Persist under this relative directory: the audit log records the persist
# path, so an absolute temporary path would change the store bytes.
OUT = "out"

CASES: dict[str, list[str]] = {
    "simulate --demo": ["simulate", "--demo", "--format", "machine", "--out", OUT],
    **{
        f"simulate --seed {n}": ["simulate", "--seed", str(n), "--format", "machine", "--out", OUT]
        for n in range(5)
    },
    "eval all --seed 0": ["eval", "all", "--seed", "0", "--format", "machine"],
    **{
        f"synth --seed {n} --days 21": ["synth", "--seed", str(n), "--days", "21", "--format", "machine"]
        for n in range(5)
    },
}

DIGESTS: dict[str, dict[str, str]] = {
    "eval all --seed 0": {
        "exit": "0",
        "stdout": "65bc064b706e22a230fc66f94ce259a1ada69e8815f83bb3631778bc54674250",
    },
    "simulate --demo": {
        "events.jsonl": "2568c82810a513949b7db7be1d229782246a21647a5f9941d98118ae37c7e19b",
        "exit": "0",
        "stdout": "6587cd9add824abd47d3807fddb31b045ff325f7ca29e9fff2a7a1a33d8bad4a",
        "store/audit.log": "1162ca9bb4c97e1882c8087813e673af4f46b4766869e077f024ae994c8dc94e",
        "store/keys.bin": "f988fe0abcb01bc5cb2346504e2d277c4c2b8934048a0f2e298c87dc3e657126",
        "store/store.json": "8834cb075460a8ff464b3619b79a8be99b606ce70765204aba71aa4ae01b941c",
    },
    "simulate --seed 0": {
        "events.jsonl": "10738f15d50c3e83f743e2304f7dc7f94d91f405a0061939fe13b220d3a95fe6",
        "exit": "0",
        "stdout": "a9965142996aa42b167a613dc6f3b8f9aca8b939b1aa3fcd9865c143c4e004db",
        "store/audit.log": "a152c3ba4ad03d0b430806c8fdd6570693f8fee081ccbaebb2cc5c295252190b",
        "store/keys.bin": "64b64d3a60b8106b43b90214a458ef9c53f63b26bab8cb77b38e1d02bb526937",
        "store/store.json": "c7ce66ccfe2443808360194018f442f8b3b99600ff5ac520b3106cf635af706d",
    },
    "simulate --seed 1": {
        "events.jsonl": "2b324f985a694b7bae1619fd53e637094dcf404d44bcb4d1c0f75c7f4d75d9e6",
        "exit": "0",
        "stdout": "1d5ef9640f6ef3af430f6289d64788d195e9917f514f701d568547ddf578d678",
        "store/audit.log": "e3004988b07ec82aef3a15383b4d88495bce49b5007c8301a3731a052811748a",
        "store/keys.bin": "c1cf14c625184558014450454aad0f09b95b6e476685b7ad24902b1d204f748f",
        "store/store.json": "51061befb155881348fc45fc677a0fc73c0eb58e86a6a84acfc25b2f8ca9aa24",
    },
    "simulate --seed 2": {
        "events.jsonl": "5c1d3230b284285b19564c3c203915624e6ac05f8cc78922ae8b16895f97bf95",
        "exit": "0",
        "stdout": "c1cfd04bf606f427c1fad7ffbe773d0ba3c36fcc67d9502e5eea7155e6752c81",
        "store/audit.log": "9cf87e329a1fcdb2def5727add9ba9be6ee5aa56ec3308b666a03c2e01dab564",
        "store/keys.bin": "47f7c84d2b4d17e268447573ab4ef78a3c3571ceab0c70c3caff9a32954fbf48",
        "store/store.json": "4a6c051c9c1c2c8f553a6e3f063691c03e046029794822497eba59e116daa72f",
    },
    "simulate --seed 3": {
        "events.jsonl": "9719f7f7116afe301161559413fdb32fafc1775ee39c7bb372d25b88e28c5512",
        "exit": "0",
        "stdout": "9c0ec62bf57fa504aed26e0a0ef7bc2d255b3dcefd184da34dc0905a69ed1815",
        "store/audit.log": "756d65ba16420a1182343d3ab1a040da94fcf1c187ebd663d3fd22f25799d549",
        "store/keys.bin": "327068141fddc083fa3e6fa72422db089c5d138005322c8e7a61d2d086f07a12",
        "store/store.json": "71305b205b0c5f1bc0ef80c24e94baf3b6ef3ffaedd30b91dbf143cd2475964f",
    },
    "simulate --seed 4": {
        "events.jsonl": "2dd4fa1a589d3da80c17d43629d519454358935309a9afc7a529b7cb6e825e00",
        "exit": "0",
        "stdout": "a56e8c3e6135c6362e2c8523829b7d2e65b7d940c8ee562006747eff7773df2f",
        "store/audit.log": "ba7e328b9b478fbfcdf6611c705883be3e531d010a976b6d1465d42259eb0fd4",
        "store/keys.bin": "7a1b1a0601b7ddd7abac4879e213a60afd4d144da8ff746bade6f7fe97970c6e",
        "store/store.json": "d0bfb2a57ebfdff7bce3cea7fd95d551545061c9e2975bfa4470c72cfd9e24db",
    },
    "synth --seed 0 --days 21": {
        "exit": "0",
        "stdout": "39d135c33c4b656115a9229e3eef1873b82e64ea561ddc3a25fadb4220e93c86",
    },
    "synth --seed 1 --days 21": {
        "exit": "0",
        "stdout": "6d32157b2e4d9e99716a86a920cfb35acdd470e0f2084d2c7bc8afa4be4a8bc0",
    },
    "synth --seed 2 --days 21": {
        "exit": "0",
        "stdout": "c119c25a828f3f840f44dfad4a9ddb35b81c655c011470774dc7e2053b0c4c7d",
    },
    "synth --seed 3 --days 21": {
        "exit": "0",
        "stdout": "5449ce1768aac076d46d45ea07a4bc58e0f148c2a8849001c6369d89d7e1de19",
    },
    "synth --seed 4 --days 21": {
        "exit": "0",
        "stdout": "ac1a042375ec79c6185745747ac3e28bad772d3e908a0b91b3bf0546677aad00",
    },
}


# Ids on both sides of each varint length boundary, up to the largest id.
BOUNDARY_IDS = (
    0, 1, 127, 128, 2**14 - 1, 2**14, 2**21 - 1, 2**21, 2**28 - 1, 2**28, 2**31 - 1,
)

CODEC_DIGESTS: dict[str, str] = {
    "scenario days --seed 0": "cc6d616819d996b2a28f35ad8cb90b49e6071e84a949d28e6da0a0fbb68226dd",
    "scenario days --seed 1": "0c150a8107902f15f5b45075e38ca789872906e32111d1d18432568e8dd21e83",
    "scenario days --seed 2": "64156199ac4e20793aa9067c8b9423313722b7202f2baf23ecccbb42124c1cb6",
    "scenario days --seed 3": "740f69bdd25f2eb8aadc7550124577562bb25064677c27e89aaadbed3720f38a",
    "scenario days --seed 4": "6d76bf6262614292a3f7312b35545bbd8108ba4b9a482f5b524ac7de2b70b032",
    "varint boundaries": "d3a65b505691107419438227bbdc7b524b481a784a5444c70ca2101e9b562ef4",
}


def codec_streams(case: str) -> list[TokenStream]:
    if case == "varint boundaries":
        tokens = np.zeros((DIALOG_START + len(BOUNDARY_IDS), CHANNELS), dtype=np.int32)
        for row, value in enumerate(BOUNDARY_IDS):
            # each id on the text channel and on one audio slot, beside a 1-byte id
            tokens[DIALOG_START + row, 0] = value
            tokens[DIALOG_START + row, 1 + row % (CHANNELS - 1)] = value
            tokens[DIALOG_START + row, CHANNELS - 1 - row % (CHANNELS - 1)] = 7
        return [TokenStream(tokens)]
    seed = int(case.split()[-1])
    scenario = synth_scenario(ScenarioSpec(seed=seed, n_days=21))
    return [build_day_stream(scenario, d).stream for d in range(len(scenario.days))]


CODEC_CASES = [f"scenario days --seed {n}" for n in range(5)] + ["varint boundaries"]


def codec_digest(case: str) -> str:
    digest = hashlib.sha256()
    for stream in codec_streams(case):
        data = serialize_stream(stream)
        assert parse_stream(data) == stream
        digest.update(data)
    return digest.hexdigest()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(argv: list[str]) -> dict[str, str]:
    """Run one CLI command in the current directory; digest stdout and files under OUT."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    digests = {"exit": str(code), "stdout": _sha(stdout.getvalue().encode("utf-8"))}
    for root, _, files in os.walk(OUT):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, OUT).replace(os.sep, "/")] = _sha(fh.read())
    return dict(sorted(digests.items()))


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_digests_are_unchanged(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_digests(CASES[case]) == DIGESTS[case]


@pytest.mark.parametrize("case", CODEC_CASES)
def test_codec_bytes_are_unchanged(case):
    assert codec_digest(case) == CODEC_DIGESTS[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            here = os.getcwd()
            os.chdir(tmp)
            try:
                digests = run_digests(CASES[case])
            finally:
                os.chdir(here)
        sys.stdout.write(f"    {json.dumps(case)}: {{\n")
        for name, digest in digests.items():
            sys.stdout.write(f"        {json.dumps(name)}: {json.dumps(digest)},\n")
        sys.stdout.write("    },\n")
    sys.stdout.write("\n")
    for case in CODEC_CASES:
        sys.stdout.write(f"    {json.dumps(case)}: {json.dumps(codec_digest(case))},\n")
