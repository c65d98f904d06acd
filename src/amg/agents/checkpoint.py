"""Versioned binary checkpoints for agents.

Layout (all little-endian): 8-byte magic, u32 JSON header length, the JSON
header (kind, hyperparameters, dimensions), u32 array count, then per array
a u16 name length, the name, a u32 element count, and float64 data.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .base import AgentHyper
from .dqn import DqnAgent
from .pg import ReinforceAgent
from .ppo import PpoAgent
from .random_agent import RandomAgent

MAGIC = b"AMGAGT01"

AGENT_KINDS = {
    DqnAgent.kind: DqnAgent,
    ReinforceAgent.kind: ReinforceAgent,
    PpoAgent.kind: PpoAgent,
    RandomAgent.kind: RandomAgent,
}


class CheckpointError(ValueError):
    """Raised for unreadable or mismatched checkpoint files."""


def _agent_class(kind: str):
    try:
        return AGENT_KINDS[kind]
    except KeyError:
        raise CheckpointError(
            f"unknown agent kind {kind!r}; expected one of {sorted(AGENT_KINDS)}"
        ) from None


def make_agent(kind: str, obs_dim: int, n_actions: int,
               hyper: AgentHyper | None = None, *, seed: int):
    return _agent_class(kind)(obs_dim, n_actions, hyper or AgentHyper(), seed=seed)


def save_agent(path: str | Path, agent) -> None:
    header = {
        "kind": agent.kind,
        "obs_dim": agent.obs_dim,
        "n_actions": agent.n_actions,
        "hyper": agent.hyper.to_dict(),
    }
    head_blob = json.dumps(header, sort_keys=True).encode("utf-8")
    arrays = agent.state_arrays()
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", len(head_blob))
    out += head_blob
    out += struct.pack("<I", len(arrays))
    for name, arr in arrays.items():
        name_b = name.encode("utf-8")
        data = np.asarray(arr, dtype=np.float64).ravel()
        out += struct.pack("<H", len(name_b))
        out += name_b
        out += struct.pack("<I", data.size)
        out += data.astype("<f8").tobytes()
    Path(path).write_bytes(bytes(out))


def load_agent(path: str | Path, seed: int):
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:8] != MAGIC:
        raise CheckpointError("bad magic; not an agent checkpoint")
    offset = 8
    (head_len,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    try:
        header = json.loads(blob[offset : offset + head_len].decode("utf-8"))
    except (ValueError, RecursionError) as e:  # also an int past Python's digit limit
        raise CheckpointError(f"unreadable checkpoint header: {e}") from None
    offset += head_len
    try:
        (n_arrays,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        arrays: dict[str, np.ndarray] = {}
        for _ in range(n_arrays):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (count,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            arrays[name] = np.frombuffer(
                blob, dtype="<f8", count=count, offset=offset
            ).copy()
            offset += 8 * count
    except (struct.error, UnicodeDecodeError, ValueError) as e:
        raise CheckpointError(f"truncated or corrupt checkpoint body: {e}") from None
    if offset != len(blob):
        raise CheckpointError("trailing bytes after the last checkpoint array")
    try:
        kind = header["kind"]
        obs_dim, n_actions = int(header["obs_dim"]), int(header["n_actions"])
        hyper = AgentHyper.from_dict(header["hyper"])
        # Check the header against the body before building anything: the
        # networks' size follows the header, the body's follows the file size.
        need = _agent_class(kind).state_sizes(obs_dim, n_actions)
        have = {name: arr.size for name, arr in arrays.items()}
        if need != have:
            raise CheckpointError(f"arrays {have} do not fit the header, which needs {need}")
        agent = make_agent(kind, obs_dim, n_actions, hyper, seed=seed)
        agent.load_state_arrays(arrays)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as e:
        raise CheckpointError(f"checkpoint header and arrays do not fit: {e!r}") from None
    return agent
