"""The execution knobs every run shares, and where their defaults live.

:class:`ExecutionSettings` is the one value object a run resolves
(:meth:`ExecutionSettings.resolve`): the per-server capacity cap and
its overflow policy, the routing PRF, the streaming granularity, the
worker pool and the machine spec.  There is one execution engine --
relations travel as ``(n, arity)`` int64 arrays, one tuple of arity
``a`` costing ``a * value_bits`` bits on receipt, exactly the
tuple-based MPC model's load -- so no setting picks an engine.

Every default is a field default: a run's pool and machines come
from its own settings alone (serial and homogeneous unless the caller
picks otherwise), never from the environment.

This module is a leaf: it imports nothing from :mod:`repro`, so any
submodule may consult it without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

#: The engines' worker-pool kinds: where a run's per-server routing and
#: local joins fan out (:func:`repro.parallel.pool.get_pool`).
PoolKind = Literal["serial", "thread", "process"]

POOL_KINDS: tuple[PoolKind, ...] = ("serial", "thread", "process")


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

    @property
    def p(self) -> int:
        return len(self.speeds)

    def require_p(self, p: int) -> None:
        """Raise ``ValueError`` unless this spec has exactly ``p`` servers."""
        if self.p != p:
            raise ValueError(f"MachineSpec describes {self.p} servers but p={p}")

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


_HASH_METHODS = ("splitmix64", "blake2b")
_OVERFLOW_MODES = ("fail", "drop")


@dataclass(frozen=True)
class ExecutionSettings:
    """The per-run execution knobs every executor shares.

    One value object carries the per-server per-round capacity cap and
    its overflow policy, the routing PRF, the streaming granularity,
    the worker pool and the machine spec.  ``machines=None`` is the
    homogeneous cluster.  :meth:`resolve` fills in the storage
    manager's chunk size and checks the spec against ``p``; the
    executor cores receive an already-resolved instance.
    """

    capacity_bits: float | None = None
    on_overflow: Literal["fail", "drop"] = "fail"
    hash_method: str = "splitmix64"
    chunk_rows: int | None = None
    pool: PoolKind = "serial"
    max_workers: int | None = None
    machines: MachineSpec | None = None

    def __post_init__(self) -> None:
        if self.machines is not None and not isinstance(self.machines, MachineSpec):
            raise TypeError(
                f"machines must be a MachineSpec or None, got {self.machines!r}"
            )
        if self.capacity_bits is not None and not self.capacity_bits >= 0:
            raise ValueError(
                f"capacity_bits must be >= 0, got {self.capacity_bits!r}"
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
        if self.pool not in POOL_KINDS:
            raise ValueError(
                f"unknown pool kind {self.pool!r} "
                f"(expected one of {POOL_KINDS})"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")

    def resolve(
        self, storage: object | None = None, p: int | None = None
    ) -> "ExecutionSettings":
        """A copy with chunk granularity pinned and the spec checked.

        An attached storage manager supplies its own ``chunk_rows``
        when the caller gave none, and a machine spec must describe
        exactly ``p`` servers when ``p`` is known.  This is the one
        shared resolution step behind every run
        (:func:`repro.run.dispatch_run`).
        """
        if self.machines is not None and p is not None:
            self.machines.require_p(p)
        chunk_rows = self.chunk_rows
        if chunk_rows is None and storage is not None:
            chunk_rows = storage.chunk_rows  # type: ignore[attr-defined]
        return replace(self, chunk_rows=chunk_rows)


#: Every knob at its default: what a run given no settings uses.
DEFAULT_SETTINGS = ExecutionSettings()

