import argparse
import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from hqc128 import cli

SEED_A = "00" * 40
SEED_B = "01" * 40

# SHA3-256 of the file written by `hqc128 kat --count 10 --seed 00...00`.
# Any change to keys, ciphertexts or shared secrets changes it.
GOLDEN_KAT_SHA3_256 = "a20e7623824f55c6d1778b91ec69d58a02b25702a28024e43e87adadb15eaf28"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "hqc128.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture()
def keypair(tmp_path):
    pk = tmp_path / "pk.bin"
    sk = tmp_path / "sk.bin"
    res = run_cli("keygen", "--seed", SEED_A, "--out-pk", str(pk), "--out-sk", str(sk))
    assert res.returncode == 0, res.stderr
    return pk, sk


def test_keygen_writes_sized_files(keypair):
    pk, sk = keypair
    assert pk.stat().st_size == 2249
    assert sk.stat().st_size == 2289


def test_keygen_deterministic_files(tmp_path, keypair):
    pk1, sk1 = keypair
    pk2 = tmp_path / "pk2.bin"
    sk2 = tmp_path / "sk2.bin"
    res = run_cli("keygen", "--seed", SEED_A, "--out-pk", str(pk2), "--out-sk", str(sk2))
    assert res.returncode == 0
    assert pk1.read_bytes() == pk2.read_bytes()
    assert sk1.read_bytes() == sk2.read_bytes()


def test_keygen_reports_sizes(tmp_path):
    res = run_cli(
        "keygen", "--seed", SEED_A,
        "--out-pk", str(tmp_path / "p"), "--out-sk", str(tmp_path / "s"),
    )
    assert "2249" in res.stdout and "2289" in res.stdout


def test_keygen_usage_errors(tmp_path):
    res = run_cli("keygen", "--out-sk", str(tmp_path / "s"))  # missing --out-pk
    assert res.returncode == 2
    res = run_cli(
        "keygen", "--seed", "abcd",
        "--out-pk", str(tmp_path / "p"), "--out-sk", str(tmp_path / "s"),
    )
    assert res.returncode == 2


def test_encaps_decaps_roundtrip(tmp_path, keypair):
    pk, sk = keypair
    ct = tmp_path / "ct.bin"
    ss1 = tmp_path / "ss1.bin"
    ss2 = tmp_path / "ss2.bin"
    res = run_cli("encaps", "--pk", str(pk), "--coins", SEED_B,
                  "--out-ct", str(ct), "--out-ss", str(ss1))
    assert res.returncode == 0, res.stderr
    assert ct.stat().st_size == 4482
    assert ss1.stat().st_size == 64
    res = run_cli("decaps", "--sk", str(sk), "--ct", str(ct), "--out-ss", str(ss2))
    assert res.returncode == 0, res.stderr
    assert ss1.read_bytes() == ss2.read_bytes()


def test_decaps_rejects_corrupt_ciphertext(tmp_path, keypair):
    pk, sk = keypair
    ct = tmp_path / "ct.bin"
    ss = tmp_path / "ss.bin"
    run_cli("encaps", "--pk", str(pk), "--coins", SEED_B,
            "--out-ct", str(ct), "--out-ss", str(ss))
    blob = bytearray(ct.read_bytes())
    blob[10] ^= 0x40
    ct.write_bytes(bytes(blob))
    res = run_cli("decaps", "--sk", str(sk), "--ct", str(ct),
                  "--out-ss", str(tmp_path / "ss3.bin"))
    assert res.returncode == 4


def test_malformed_pk_length_exits_2(tmp_path):
    short = tmp_path / "pk.bin"
    short.write_bytes(b"\x00" * 2248)
    res = run_cli("encaps", "--pk", str(short), "--coins", SEED_B,
                  "--out-ct", str(tmp_path / "ct"), "--out-ss", str(tmp_path / "ss"))
    assert res.returncode == 2


def test_missing_input_file_exits_3(tmp_path):
    res = run_cli("encaps", "--pk", str(tmp_path / "absent.bin"), "--coins", SEED_B,
                  "--out-ct", str(tmp_path / "ct"), "--out-ss", str(tmp_path / "ss"))
    assert res.returncode == 3


def test_hex_mode_roundtrip(tmp_path):
    pk = tmp_path / "pk.hex"
    sk = tmp_path / "sk.hex"
    ct = tmp_path / "ct.hex"
    ss1 = tmp_path / "ss1.hex"
    ss2 = tmp_path / "ss2.hex"
    assert run_cli("keygen", "--seed", SEED_A, "--out-pk", str(pk),
                   "--out-sk", str(sk), "--hex").returncode == 0
    text = pk.read_text().strip()
    assert len(text) == 2 * 2249
    assert text == text.lower()
    assert run_cli("encaps", "--pk", str(pk), "--coins", SEED_B, "--out-ct", str(ct),
                   "--out-ss", str(ss1), "--hex").returncode == 0
    assert run_cli("decaps", "--sk", str(sk), "--ct", str(ct),
                   "--out-ss", str(ss2), "--hex").returncode == 0
    assert ss1.read_text() == ss2.read_text()


def test_kat_generate_and_verify(tmp_path):
    kat = tmp_path / "kat.txt"
    res = run_cli("kat", "--count", "5", "--seed", SEED_A, "--out", str(kat))
    assert res.returncode == 0
    content = kat.read_text()
    assert content.count("count = ") == 5
    assert content.count("ss = ") == 5
    res = run_cli("kat-verify", "--in", str(kat))
    assert res.returncode == 0
    assert res.stdout.count("PASS") == 5


def test_kat_zero_seed_matches_golden_digest(tmp_path):
    kat = tmp_path / "kat.txt"
    res = run_cli("kat", "--count", "10", "--seed", SEED_A, "--out", str(kat))
    assert res.returncode == 0, res.stderr
    assert hashlib.sha3_256(kat.read_bytes()).hexdigest() == GOLDEN_KAT_SHA3_256


def test_kat_hundred_records(tmp_path):
    kat = tmp_path / "kat100.txt"
    res = run_cli("kat", "--count", "100", "--seed", SEED_B, "--out", str(kat))
    assert res.returncode == 0
    records = [b for b in kat.read_text().split("\n\n") if b.startswith("count")]
    assert len(records) == 100
    for i, block in enumerate(records):
        lines = block.splitlines()
        assert lines[0] == f"count = {i}"
        names = [line.split(" = ")[0] for line in lines]
        assert names == ["count", "seed", "pk", "sk", "ct", "ss"]
        values = dict(line.split(" = ") for line in lines[1:])
        assert len(values["seed"]) == 2 * 40
        assert len(values["pk"]) == 2 * 2249
        assert len(values["sk"]) == 2 * 2289
        assert len(values["ct"]) == 2 * 4482
        assert len(values["ss"]) == 2 * 64


def test_kat_verify_flags_tampered_record(tmp_path):
    kat = tmp_path / "kat.txt"
    run_cli("kat", "--count", "3", "--seed", SEED_A, "--out", str(kat))
    lines = kat.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("ss = "):
            digit = line[5]
            replacement = "0" if digit != "0" else "1"
            lines[i] = "ss = " + replacement + line[6:]
            break
    kat.write_text("\n".join(lines) + "\n")
    res = run_cli("kat-verify", "--in", str(kat))
    assert res.returncode == 1
    assert "FAIL" in res.stdout
    assert res.stdout.count("PASS") == 2


def test_kat_verify_names_the_record_with_a_wrong_seed_length(tmp_path):
    kat = tmp_path / "kat.txt"
    run_cli("kat", "--count", "2", "--seed", SEED_A, "--out", str(kat))
    blocks = kat.read_text().split("\n\n")
    lines = blocks[2].splitlines()   # blocks[0] is the header; record 1
    lines[1] += "ab"                 # a 41-byte seed
    blocks[2] = "\n".join(lines)
    kat.write_text("\n\n".join(blocks))
    res = run_cli("kat-verify", "--in", str(kat))
    assert res.returncode == 2
    assert "record 1: malformed: seed: expected 40 bytes, got 41" in res.stderr
    assert res.stdout == "count 0: PASS\n"


def test_kat_count_must_be_positive(tmp_path):
    res = run_cli("kat", "--count", "0", "--seed", SEED_A,
                  "--out", str(tmp_path / "k.txt"))
    assert res.returncode == 2


def test_readme_cli_block_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    lines = [line.split("#")[0].replace("<80 hex chars>", SEED_A)
             for line in block.group(1).splitlines() if line.startswith("hqc128 ")]
    parser = cli._build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])   # exits 2 on a stale line
    documented = {line.split()[1] for line in lines}
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == documented
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench"])
    assert exc.value.code == 2


def test_package_runs_as_module():
    res = subprocess.run(
        [sys.executable, "-m", "hqc128", "costmodel"], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert "keygen.total=5609000" in res.stdout


def test_profile_command(tmp_path):
    res = run_cli("profile", "--phase", "decaps")
    assert res.returncode == 0
    assert "rm_blocks_decoded" in res.stdout
    assert "decaps.rs_rm=" in res.stdout


def test_costmodel_no_flags_prints_baselines():
    res = run_cli("costmodel")
    assert res.returncode == 0
    assert "keygen.total=5609000" in res.stdout
    assert "encaps.total=13850000" in res.stdout
    assert "decaps.total=19903000" in res.stdout


def test_costmodel_rejects_a_bad_seed_as_usage_error():
    for seed in ("zz", "00"):
        res = run_cli("costmodel", "--seed", seed)
        assert res.returncode == 2, (seed, res.stderr)
        assert res.stderr.startswith("error: --seed: ")
        assert "Traceback" not in res.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_0_quietly(unbuffered):
    # the read end is closed before the child starts, so its first write to
    # stdout fails with EPIPE: in print when stdout is unbuffered, in the
    # flush after the command when it is buffered
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run([sys.executable, "-m", "hqc128.cli", "costmodel", "--all"],
                             stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert (res.returncode, res.stderr) == (0, "")


def test_costmodel_all_prints_improvements():
    res = run_cli("costmodel", "--all")
    assert res.returncode == 0
    assert "formula sheet" in res.stdout
    assert "dma_factor" in res.stdout
    for phase in ("keygen", "encaps", "decaps"):
        assert f"{phase}.total=" in res.stdout


# SHA3-256 of the stdout of each report with its `wall_time_s` line removed:
# the formula sheet, the attribution shares and every `phase.category=` line
# are pinned, not only the totals.
REPORT_SHA3_256 = {
    "costmodel": "34ba97af0a30a98f1bc737af68dce00f71428ca1a22d47c0e567c5b7e36eb936",
    "costmodel --all": "0a9f4854c61629a2ffbc0a501db5673236b7332fb01b80e2999bbd77df3a59d3",
    "costmodel --dma": "ae723c0c6dd65f2e249be29ce49cbf812d705ecfc5c769c6a565d8c6899cd01f",
    "costmodel --r-unit": "7dad17b9ce870be38e080e4f0b4c28f606ab018e7bbf8e4bc568f28bee392f40",
    "costmodel --sampling-unit":
        "726f333a62bf9d9754424302be66dee4133286dd53732ae89605c92a2774cc02",
    "costmodel --rm-decoder": "93120e1fb163a2cc8dadd22dfc132dea0a207c95b292e4856b0404e2284b6f49",
    "costmodel --gf-insn": "d9131277da47a870156df17c4720af1e176f4798c19a7e5676da6f9d59b8c923",
    "profile": "bacd289e25cbdf3cdc40eda205258828079c5f5c2cf70a7e66794c5d81385a6f",
}


@pytest.mark.parametrize("command", REPORT_SHA3_256)
def test_report_text_matches_pinned_digest(command, capsys):
    assert cli.main(command.split()) == 0
    text = "".join(line for line in capsys.readouterr().out.splitlines(keepends=True)
                   if not line.startswith("wall_time_s"))
    assert hashlib.sha3_256(text.encode()).hexdigest() == REPORT_SHA3_256[command]
