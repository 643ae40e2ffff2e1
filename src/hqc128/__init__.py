"""HQC-128 key encapsulation with a profiling and accelerator cost-model
harness."""

from .kem import (
    Ciphertext,
    DecapsulationFailure,
    FormatError,
    PublicKey,
    SecretKey,
    decaps,
    deserialize_ct,
    deserialize_pk,
    deserialize_sk,
    encaps,
    keygen,
    serialize_ct,
    serialize_pk,
    serialize_sk,
)
from .params import ParamSet, hqc128

__version__ = "0.1.0"

__all__ = [
    "Ciphertext",
    "DecapsulationFailure",
    "FormatError",
    "ParamSet",
    "PublicKey",
    "SecretKey",
    "decaps",
    "deserialize_ct",
    "deserialize_pk",
    "deserialize_sk",
    "encaps",
    "hqc128",
    "keygen",
    "serialize_ct",
    "serialize_pk",
    "serialize_sk",
]
