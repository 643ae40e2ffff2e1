"""Command-line front end: key lifecycle, KAT generation/verification,
profiling, and accelerator cost-model reports.

Exit codes: 0 success, 1 KAT verification failure, 2 usage/format error,
3 I/O error, 4 cryptographic rejection; 0, silently, if stdout's reader quits.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable

from . import costmodel, kem
from .params import P
from .sampling import DOMAIN_COINS, DOMAIN_KAT_CHAIN, Xof

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_REJECT = 4


def _parse_hex(text: str, expect_len: int, what: str) -> bytes:
    try:
        raw = bytes.fromhex(text)
    except ValueError as exc:
        raise ValueError(f"{what}: invalid hex: {exc}") from exc
    if len(raw) != expect_len:
        raise ValueError(f"{what}: expected {expect_len} bytes, got {len(raw)}")
    return raw


def _read_file(path: str, hex_mode: bool) -> bytes:
    with open(path, "rb") as fh:
        data = fh.read()
    if hex_mode:
        try:
            return bytes.fromhex(data.decode("ascii").strip())
        except (UnicodeDecodeError, ValueError) as exc:
            raise ValueError(f"{path}: invalid hex content: {exc}") from exc
    return data


def _write_file(path: str, data: bytes, hex_mode: bool) -> None:
    with open(path, "wb") as fh:
        fh.write(data.hex().encode("ascii") + b"\n" if hex_mode else data)


def _seed_or_default(hex_seed: str | None, what: str,
                     default: Callable[[int], bytes]) -> bytes:
    """The parsed hex seed, or default(seed length) when none is given."""
    if hex_seed is None:
        return default(P.seed_bytes)
    return _parse_hex(hex_seed, P.seed_bytes, what)


# ---------------------------------------------------------------------------
# Commands


def cmd_keygen(args) -> int:
    seed = _seed_or_default(args.seed, "--seed", os.urandom)
    pk, sk = kem.keygen(seed)
    pk_bytes = kem.serialize_pk(pk)
    sk_bytes = kem.serialize_sk(sk)
    _write_file(args.out_pk, pk_bytes, args.hex)
    _write_file(args.out_sk, sk_bytes, args.hex)
    print(f"pk: {len(pk_bytes)} bytes -> {args.out_pk}")
    print(f"sk: {len(sk_bytes)} bytes -> {args.out_sk}")
    return EXIT_OK


def cmd_encaps(args) -> int:
    coins = _seed_or_default(args.coins, "--coins", os.urandom)
    pk = kem.deserialize_pk(_read_file(args.pk, args.hex))
    ct, ss = kem.encaps(pk, coins)
    ct_bytes = kem.serialize_ct(ct)
    _write_file(args.out_ct, ct_bytes, args.hex)
    _write_file(args.out_ss, ss, args.hex)
    print(f"ct: {len(ct_bytes)} bytes -> {args.out_ct}")
    print(f"ss: {len(ss)} bytes -> {args.out_ss}")
    return EXIT_OK


def cmd_decaps(args) -> int:
    sk = kem.deserialize_sk(_read_file(args.sk, args.hex))
    ct = kem.deserialize_ct(_read_file(args.ct, args.hex))
    ss = kem.decaps(sk, ct)
    _write_file(args.out_ss, ss, args.hex)
    print(f"ss: {len(ss)} bytes -> {args.out_ss}")
    return EXIT_OK


def _kat_record(rec_seed: bytes) -> dict[str, bytes]:
    pk, sk = kem.keygen(rec_seed)
    coins = Xof(rec_seed, DOMAIN_COINS).squeeze(P.seed_bytes)
    ct, ss = kem.encaps(pk, coins)
    return {
        "seed": rec_seed,
        "pk": kem.serialize_pk(pk),
        "sk": kem.serialize_sk(sk),
        "ct": kem.serialize_ct(ct),
        "ss": ss,
    }


def cmd_kat(args) -> int:
    if args.count <= 0:
        raise ValueError("--count must be positive")
    master_seed = _parse_hex(args.seed, P.seed_bytes, "--seed")
    chain = Xof(master_seed, DOMAIN_KAT_CHAIN)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(f"# hqc128 known-answer records ({args.count})\n\n")
        for i in range(args.count):
            record = _kat_record(chain.squeeze(P.seed_bytes))
            fh.write(f"count = {i}\n")
            for name in ("seed", "pk", "sk", "ct", "ss"):
                fh.write(f"{name} = {record[name].hex()}\n")
            fh.write("\n")
    print(f"wrote {args.count} records -> {args.out}")
    return EXIT_OK


def _parse_kat(path: str) -> list[dict[str, str]]:
    records: list[dict[str, str]] = []
    current: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                if current:
                    records.append(current)
                    current = {}
                continue
            if "=" not in line:
                raise ValueError(f"{path}: malformed line {line!r}")
            name, _, value = line.partition("=")
            current[name.strip()] = value.strip()
    if current:
        records.append(current)
    return records


def cmd_kat_verify(args) -> int:
    failures = 0
    records = _parse_kat(getattr(args, "in"))
    if not records:
        raise ValueError("no records found")
    for record in records:
        count = record.get("count", "?")
        try:
            rec_seed = _parse_hex(record["seed"], P.seed_bytes, "seed")
            expect = {name: bytes.fromhex(record[name]) for name in ("pk", "sk", "ct", "ss")}
        except (KeyError, ValueError) as exc:
            raise ValueError(f"record {count}: malformed: {exc}") from exc
        regenerated = _kat_record(rec_seed)
        ok = all(regenerated[name] == expect[name] for name in ("pk", "sk", "ct", "ss"))
        if ok:
            sk = kem.deserialize_sk(expect["sk"])
            ct = kem.deserialize_ct(expect["ct"])
            try:
                ok = kem.decaps(sk, ct) == expect["ss"]
            except kem.DecapsulationFailure:
                ok = False
        print(f"count {count}: {'PASS' if ok else 'FAIL'}")
        failures += not ok
    return EXIT_VERIFY_FAIL if failures else EXIT_OK


def cmd_profile(args) -> int:
    seed = _seed_or_default(args.seed, "--seed", bytes)
    phases = costmodel.PHASES if args.phase == "all" else (args.phase,)
    profiles = [costmodel.profile(ph, seed) for ph in phases]
    print(costmodel.render_profile_report(profiles))
    return EXIT_OK


def cmd_costmodel(args) -> int:
    seed = _seed_or_default(args.seed, "--seed", bytes)
    cfg = costmodel.AcceleratorConfig(*(
        args.all or getattr(args, u) for u in costmodel.AcceleratorConfig._fields))
    profiles = [costmodel.profile(ph, seed) for ph in costmodel.PHASES]
    print(costmodel.render_costmodel_report(cfg, profiles))
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqc128",
        description="HQC-128 KEM with profiling and accelerator cost model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate a key pair")
    kg.add_argument("--seed", help="40-byte hex seed (default: OS entropy)")
    kg.add_argument("--out-pk", required=True)
    kg.add_argument("--out-sk", required=True)
    kg.add_argument("--hex", action="store_true", help="hex file I/O")
    kg.set_defaults(func=cmd_keygen)

    enc = sub.add_parser("encaps", help="encapsulate a shared secret")
    enc.add_argument("--pk", required=True)
    enc.add_argument("--coins", help="40-byte hex coins (default: OS entropy)")
    enc.add_argument("--out-ct", required=True)
    enc.add_argument("--out-ss", required=True)
    enc.add_argument("--hex", action="store_true")
    enc.set_defaults(func=cmd_encaps)

    dec = sub.add_parser("decaps", help="decapsulate a ciphertext")
    dec.add_argument("--sk", required=True)
    dec.add_argument("--ct", required=True)
    dec.add_argument("--out-ss", required=True)
    dec.add_argument("--hex", action="store_true")
    dec.set_defaults(func=cmd_decaps)

    kat = sub.add_parser("kat", help="generate known-answer records")
    kat.add_argument("--count", type=int, required=True)
    kat.add_argument("--seed", required=True, help="40-byte hex master seed")
    kat.add_argument("--out", required=True)
    kat.set_defaults(func=cmd_kat)

    kvr = sub.add_parser("kat-verify", help="re-run and check a KAT file")
    kvr.add_argument("--in", required=True)
    kvr.set_defaults(func=cmd_kat_verify)

    pro = sub.add_parser("profile", help="primitive-invocation profile")
    pro.add_argument("--phase", choices=(*costmodel.PHASES, "all"), default="all")
    pro.add_argument("--seed", help="40-byte hex seed (default: zero seed)")
    pro.set_defaults(func=cmd_profile)

    cst = sub.add_parser("costmodel", help="accelerator cycle estimates")
    for unit in costmodel.AcceleratorConfig._fields:
        cst.add_argument(f"--{unit.replace('_', '-')}", action="store_true")
    cst.add_argument("--all", action="store_true", help="enable every unit")
    cst.add_argument("--seed", help="40-byte hex profiling seed")
    cst.set_defaults(func=cmd_costmodel)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except kem.FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except kem.DecapsulationFailure:
        print("decapsulation rejected the ciphertext", file=sys.stderr)
        return EXIT_REJECT
    except BrokenPipeError:
        # the reader of stdout stopped early; the exit-time flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
