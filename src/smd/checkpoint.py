"""Binary checkpoint IO.

Layout, all little-endian: magic "SMD1", u32 layer count L, L x u32 layer
sizes, u8 activation code, u64 parameter count w, then w float32 values
in canonical genome order. Parameters are stored in float32, so loading
quantizes the genome to float32-representable float64 values; the
mutation algebra's exact-cancellation guarantees assume exactly this.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .network import ACTIVATIONS, Network, NetworkSpec, ParamVector

MAGIC = b"SMD1"


def save_checkpoint(net: Network, path: str | Path) -> None:
    spec = net.spec
    sizes = spec.layer_sizes
    header = MAGIC + struct.pack(
        f"<I{len(sizes)}IBQ",
        len(sizes),
        *sizes,
        ACTIVATIONS.index(spec.hidden_activation),
        net.params.w,
    )
    Path(path).write_bytes(header + net.params.values.astype("<f4").tobytes())


def load_checkpoint(path: str | Path) -> Network:
    """Read a checkpoint; rejects wrong magic, bad layer sizes, bad lengths,
    trailing bytes and non-finite values.

    The init seed is not serialized; the restored spec carries seed 0.
    """
    blob = Path(path).read_bytes()
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    try:
        (layer_count,) = struct.unpack_from("<I", blob, 4)
        sizes = struct.unpack_from(f"<{layer_count}I", blob, 8)
        act_code, w = struct.unpack_from("<BQ", blob, 8 + 4 * layer_count)
    except struct.error as exc:
        raise CheckpointError(f"{path}: truncated header") from exc
    if len(sizes) < 2 or 0 in sizes:
        raise CheckpointError(
            f"{path}: layer sizes must be at least two integers >= 1, got {list(sizes)}"
        )
    if act_code >= len(ACTIVATIONS):
        raise CheckpointError(f"{path}: unknown activation code {act_code}")

    spec = NetworkSpec(sizes, ACTIVATIONS[act_code], seed=0)
    if w != spec.param_count():
        raise CheckpointError(
            f"{path}: header says {w} parameters, architecture needs {spec.param_count()}"
        )
    offset = 8 + 4 * layer_count + 9
    if len(blob) != offset + 4 * w:
        raise CheckpointError(
            f"{path}: expected {offset + 4 * w} bytes, found {len(blob)}"
        )
    values = np.frombuffer(blob, dtype="<f4", count=w, offset=offset).astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise CheckpointError(f"{path}: parameter vector contains non-finite entries")
    return Network(spec, ParamVector(values))
