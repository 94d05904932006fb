"""The execution knobs every run shares, and where their defaults live.

:class:`ExecutionSettings` is the one value object a run resolves
(:meth:`ExecutionSettings.resolve`): the per-server capacity cap and
its overflow policy, the routing PRF, the streaming granularity, the
worker pool and the machine spec.  There is one execution engine --
relations travel as ``(n, arity)`` int64 arrays, one tuple of arity
``a`` costing ``a * value_bits`` bits on receipt, exactly the
tuple-based MPC model's load -- so no setting picks an engine.

Defaults resolve in one order: an explicit value (``Session(...)`` /
``ExecutionSettings(...)``) wins, else the environment
(``REPRO_DEFAULT_POOL``, ``REPRO_DEFAULT_MACHINES``, read at resolve
time), else the shipped default (serial, homogeneous).

This module is a leaf: it imports nothing from :mod:`repro`, so any
submodule may consult it without import cycles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Literal

#: The engines' worker-pool kinds: where a run's per-server routing and
#: local joins fan out (:func:`repro.parallel.pool.get_pool`).
PoolKind = Literal["serial", "thread", "process"]

POOL_KINDS: tuple[PoolKind, ...] = ("serial", "thread", "process")

#: The worker-pool default when neither a run nor the environment picks
#: one: the engines stay serial (zero overhead); callers opt into
#: thread/process fan-out per session or through ``REPRO_DEFAULT_POOL``.
DEFAULT_POOL: PoolKind = "serial"


def default_pool() -> PoolKind:
    """``REPRO_DEFAULT_POOL`` as it reads now, else :data:`DEFAULT_POOL`."""
    value = os.environ.get("REPRO_DEFAULT_POOL")
    if value is None:
        return DEFAULT_POOL
    if value not in POOL_KINDS:
        raise ValueError(
            f"REPRO_DEFAULT_POOL={value!r} is not one of {POOL_KINDS}"
        )
    return value  # type: ignore[return-value]


def resolve_pool(pool: str | None) -> PoolKind:
    """An explicit pool kind, or :func:`default_pool`."""
    if pool is None:
        return default_pool()
    if pool not in POOL_KINDS:
        raise ValueError(
            f"unknown pool kind {pool!r} (expected one of {POOL_KINDS})"
        )
    return pool  # type: ignore[return-value]


@dataclass(frozen=True)
class MachineSpec:
    """Per-server relative speeds (and optional capacities) of a cluster.

    The paper's MPC model assumes ``p`` identical servers; real clusters
    mix machine generations.  A :class:`MachineSpec` describes one
    heterogeneous cluster: ``speeds[s]`` is server ``s``'s relative
    processing speed (any positive unit -- only ratios matter), and
    ``capacities[s]``, when given, is that server's own per-round
    receive cap in bits (tightening any global ``capacity_bits``).

    The uniform spec (:meth:`uniform`, or ``machines=None`` everywhere)
    is the degenerate default and is bit-identical to the homogeneous
    code paths: equal speeds route through the unweighted ``% buckets``
    hash and absent capacities leave the global cap comparisons
    untouched.

    Skew executors allocate *block* servers beyond ``p`` (the star
    algorithm's heavy blocks, the triangle algorithm's case-1/case-2
    grids); those logical servers live on the same physical machines,
    so :meth:`speed` and :meth:`capacity` extend modularly
    (``speeds[s % p]``).
    """

    speeds: tuple[float, ...]
    capacities: tuple[float | None, ...] | None = None

    def __post_init__(self) -> None:
        if not self.speeds:
            raise ValueError("MachineSpec needs at least one server")
        object.__setattr__(self, "speeds", tuple(float(v) for v in self.speeds))
        for v in self.speeds:
            if not (v > 0.0) or v != v or v == float("inf"):
                raise ValueError(f"machine speeds must be positive finite, got {v!r}")
        if self.capacities is not None:
            caps = tuple(
                None if c is None else float(c) for c in self.capacities
            )
            object.__setattr__(self, "capacities", caps)
            if len(caps) != len(self.speeds):
                raise ValueError(
                    f"capacities has {len(caps)} entries for "
                    f"{len(self.speeds)} servers"
                )
            for c in caps:
                if c is not None and c <= 0.0:
                    raise ValueError("machine capacities must be positive")

    @classmethod
    def uniform(cls, p: int, speed: float = 1.0) -> "MachineSpec":
        """The degenerate homogeneous cluster: ``p`` servers at ``speed``."""
        if p < 1:
            raise ValueError("p must be >= 1")
        return cls(speeds=(float(speed),) * p)

    @classmethod
    def parse(cls, text: str) -> "MachineSpec":
        """Parse a CLI spec like ``"4x1,4x2"`` (four 1x plus four 2x).

        Groups separated by ``,`` or ``+``; each group is
        ``COUNTxSPEED`` or a bare ``SPEED`` (count 1).  The inverse of
        :meth:`describe`, whose ``"4x1+4x2"`` form parses back exactly.
        """
        speeds: list[float] = []
        for group in text.replace("+", ",").split(","):
            group = group.strip()
            if not group:
                raise ValueError(f"empty group in machine spec {text!r}")
            if "x" in group:
                count_text, _, speed_text = group.partition("x")
                try:
                    count = int(count_text)
                    speed = float(speed_text)
                except ValueError:
                    raise ValueError(
                        f"bad machine group {group!r} (expected COUNTxSPEED)"
                    ) from None
                if count < 1:
                    raise ValueError(f"machine group {group!r} has count < 1")
            else:
                count, speed = 1, float(group)
            speeds.extend([speed] * count)
        return cls(speeds=tuple(speeds))

    def cycle_to(self, p: int) -> "MachineSpec":
        """This spec's speed pattern repeated/truncated to ``p`` servers.

        How the ``REPRO_DEFAULT_MACHINES`` pattern (e.g. ``"1,4"``)
        applies to runs of any ``p``: server ``s`` gets the pattern's
        ``s % len`` entry.
        """
        if p < 1:
            raise ValueError("p must be >= 1")
        n = len(self.speeds)
        speeds = tuple(self.speeds[s % n] for s in range(p))
        caps = None
        if self.capacities is not None:
            caps = tuple(self.capacities[s % n] for s in range(p))
        return MachineSpec(speeds=speeds, capacities=caps)

    @property
    def p(self) -> int:
        return len(self.speeds)

    @property
    def is_uniform(self) -> bool:
        """All speeds equal: routing degenerates to the unweighted hash."""
        return min(self.speeds) == max(self.speeds)

    @property
    def total_speed(self) -> float:
        return sum(self.speeds)

    @property
    def min_speed(self) -> float:
        return min(self.speeds)

    @property
    def max_speed(self) -> float:
        return max(self.speeds)

    def speed(self, server: int) -> float:
        """Server ``server``'s speed, extended modularly past ``p``."""
        return self.speeds[server % len(self.speeds)]

    def capacity(self, server: int) -> float | None:
        """Server ``server``'s own capacity cap (None: no per-machine cap)."""
        if self.capacities is None:
            return None
        return self.capacities[server % len(self.speeds)]

    def weights(self, count: int | None = None) -> tuple[float, ...]:
        """Speed-proportional routing weights over ``count`` servers.

        Normalized to sum 1; servers beyond ``p`` take the modular
        extension's speed.
        """
        if count is None:
            count = len(self.speeds)
        raw = [self.speed(s) for s in range(count)]
        total = sum(raw)
        return tuple(v / total for v in raw)

    def speed_classes(self) -> dict[float, tuple[int, ...]]:
        """Speed value -> the servers running at it (ascending speeds)."""
        classes: dict[float, list[int]] = {}
        for s, v in enumerate(self.speeds):
            classes.setdefault(v, []).append(s)
        return {v: tuple(classes[v]) for v in sorted(classes)}

    def describe(self) -> str:
        """The compact run-length form, e.g. ``"4x1+4x2"``."""

        def fmt(v: float) -> str:
            return f"{v:g}"

        groups: list[tuple[float, int]] = []
        for v in self.speeds:
            if groups and groups[-1][0] == v:
                groups[-1] = (v, groups[-1][1] + 1)
            else:
                groups.append((v, 1))
        return "+".join(
            fmt(v) if n == 1 else f"{n}x{fmt(v)}" for v, n in groups
        )


def default_machines() -> "MachineSpec | None":
    """The ``REPRO_DEFAULT_MACHINES`` pattern as it reads now.

    None (the homogeneous cluster) when the variable is unset.  The
    pattern is cycled to each run's ``p`` (:meth:`MachineSpec.cycle_to`),
    so ``"1,4"`` alternates slow/fast servers at any cluster size.
    """
    value = os.environ.get("REPRO_DEFAULT_MACHINES")
    if value is None:
        return None
    return MachineSpec.parse(value)


def resolve_machines(
    machines: "MachineSpec | None", p: int | None
) -> "MachineSpec | None":
    """An explicit spec, or :func:`default_machines` cycled to ``p``.

    An explicit spec must match ``p`` exactly when ``p`` is known; the
    default *pattern* adapts to any ``p``.  Returns None for the
    homogeneous cluster.
    """
    if machines is not None:
        if p is not None and machines.p != p:
            raise ValueError(
                f"MachineSpec describes {machines.p} servers but p={p}"
            )
        return machines
    pattern = default_machines()
    if pattern is not None and p is not None:
        return pattern.cycle_to(p)
    return pattern


_HASH_METHODS = ("splitmix64", "blake2b")
_OVERFLOW_MODES = ("fail", "drop")


@dataclass(frozen=True)
class ExecutionSettings:
    """The per-run execution knobs every executor shares.

    One value object carries the per-server per-round capacity cap and
    its overflow policy, the routing PRF, the streaming granularity,
    the worker pool and the machine spec.  :meth:`resolve` is the
    single place their defaults are decided; the executor cores receive
    an already-resolved instance and never re-derive it.
    """

    capacity_bits: float | None = None
    on_overflow: Literal["fail", "drop"] = "fail"
    hash_method: str = "splitmix64"
    chunk_rows: int | None = None
    pool: PoolKind | None = None
    max_workers: int | None = None
    machines: MachineSpec | None = None

    def __post_init__(self) -> None:
        if self.machines is not None and not isinstance(self.machines, MachineSpec):
            raise TypeError(
                f"machines must be a MachineSpec or None, got {self.machines!r}"
            )
        if self.on_overflow not in _OVERFLOW_MODES:
            raise ValueError("on_overflow must be 'fail' or 'drop'")
        if self.hash_method not in _HASH_METHODS:
            raise ValueError(
                f"unknown hash_method {self.hash_method!r} "
                f"(expected one of {_HASH_METHODS})"
            )
        if self.chunk_rows is not None and self.chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        if self.pool is not None and self.pool not in POOL_KINDS:
            raise ValueError(
                f"unknown pool kind {self.pool!r} "
                f"(expected one of {POOL_KINDS})"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")

    def resolve(
        self, storage: object | None = None, p: int | None = None
    ) -> "ExecutionSettings":
        """A copy with chunk granularity, pool and machines pinned.

        An attached storage manager supplies its own ``chunk_rows``
        when the caller gave none.  ``pool=None`` resolves to
        :func:`default_pool`; ``machines=None`` resolves to
        :func:`default_machines` cycled to ``p``
        (:func:`resolve_machines`), and an explicit spec must match
        ``p``.  This is the one shared resolution step behind every run
        (:func:`repro.run.dispatch_run`).
        """
        chunk_rows = self.chunk_rows
        if chunk_rows is None and storage is not None:
            chunk_rows = storage.chunk_rows  # type: ignore[attr-defined]
        return replace(
            self,
            chunk_rows=chunk_rows,
            pool=resolve_pool(self.pool),
            machines=resolve_machines(self.machines, p),
        )


#: Every knob at its default: what a run given no settings uses.
DEFAULT_SETTINGS = ExecutionSettings()

