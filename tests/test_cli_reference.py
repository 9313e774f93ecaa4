"""Byte gate: the six shipped configs reproduce the recorded CLI outputs.

``perfbench/reference/cli_configs.json`` holds the SHA-256 digest of every
CSV and report the configs write; this test only reads it.
"""
import hashlib
import json
from pathlib import Path

from spectralbranch.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference" / "cli_configs.json"


def test_shipped_configs_reproduce_reference_digests(tmp_path):
    want = json.loads(REFERENCE.read_text())["sha256"]
    configs = sorted((ROOT / "configs").glob("*.cfg"))
    assert len(configs) == 6
    for cfg in configs:
        # one directory per config: track and schrodinger share file names
        assert main(["--config", str(cfg), "--out", str(tmp_path / cfg.stem)]) == 0, cfg.name
    got = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    differ = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    assert not differ, f"output bytes differ from the reference in {differ}"
