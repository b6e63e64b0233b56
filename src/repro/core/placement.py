"""The vExpert abstraction and the expert-to-device mapping ``P``.

Section 3.2 of the paper introduces **vExpert** as the minimum scheduling
unit: every GPU hosts a fixed number of vExpert slots; each slot is bound to
exactly one expert; vExperts of the same expert on the same GPU share one
copy of the weights ("packing"); and an expert's tokens are split evenly
across its vExperts.

A :class:`Placement` therefore reduces to an integer count matrix
``counts[e, g]`` — the number of vExperts of expert ``e`` living on GPU
``g`` — plus the invariants that make it a valid mapping:

* every expert owns at least one vExpert,
* no GPU hosts more vExperts than it has slots.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.exceptions import PlacementError

#: A rollback token: (journal depth, version) captured by :meth:`begin_trial`.
TrialToken = tuple[int, int]


class Placement:
    """Mutable expert-to-device mapping at vExpert granularity.

    Args:
        counts: Integer matrix of shape ``(num_experts, num_gpus)``;
            ``counts[e, g]`` is the number of vExperts of ``e`` on ``g``.
        slots_per_gpu: vExpert slots available on each GPU.
    """

    #: Process-wide counter backing :attr:`state_token`. Every construction
    #: and every mutation draws a fresh value, so a token value is never
    #: shared by two distinct placement contents of the same object.
    _state_counter = itertools.count(1)

    def __init__(self, counts: np.ndarray, slots_per_gpu: int) -> None:
        arr = np.asarray(counts)
        if arr.ndim != 2:
            raise PlacementError("counts must be a (experts, gpus) matrix")
        if not np.issubdtype(arr.dtype, np.integer):
            raise PlacementError("counts must be integral")
        self._counts = arr.astype(np.int64, copy=True)
        self._slots_per_gpu = int(slots_per_gpu)
        self._version = 0
        self._state_token = next(Placement._state_counter)
        self._signature_cache: bytes | None = None
        self._journal: list[tuple[int, int, int]] | None = None
        self._trial_state_tokens: dict[TrialToken, int] = {}
        self.validate()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def balanced(
        cls, num_experts: int, num_gpus: int, slots_per_gpu: int
    ) -> "Placement":
        """Initial placement: vExperts spread evenly over experts and GPUs.

        All ``num_gpus * slots_per_gpu`` slots are distributed as evenly as
        possible across experts; each expert's replicas land on distinct GPUs
        (striped), which is the natural generalization of classic expert
        parallelism's one-expert-per-GPU layout.
        """
        if num_experts < 1 or num_gpus < 1 or slots_per_gpu < 1:
            raise PlacementError("experts, gpus and slots must all be >= 1")
        total_slots = num_gpus * slots_per_gpu
        if total_slots < num_experts:
            raise PlacementError(
                f"{total_slots} slots cannot host {num_experts} experts "
                "(every expert needs at least one vExpert)"
            )
        base, extra = divmod(total_slots, num_experts)
        replica_counts = [base + (1 if e < extra else 0) for e in range(num_experts)]
        counts = np.zeros((num_experts, num_gpus), dtype=np.int64)
        slot_cursor = 0
        for expert, n_replicas in enumerate(replica_counts):
            for _ in range(n_replicas):
                gpu = slot_cursor % num_gpus
                counts[expert, gpu] += 1
                slot_cursor += 1
        return cls(counts, slots_per_gpu)

    @classmethod
    def balanced_subset(
        cls,
        num_experts: int,
        num_gpus: int,
        slots_per_gpu: int,
        gpus: Iterable[int],
    ) -> "Placement":
        """Balanced layout striped over a subset of the GPU columns.

        The count matrix keeps the full ``num_gpus`` width -- required by
        every consumer that indexes columns by global GPU id -- but only
        the listed ``gpus`` receive vExperts. Pools with dark standby
        headroom (``ClusterState(initial_live=...)``) seed their
        placement here so nothing lands on a device that has not been
        provisioned yet. With ``gpus`` covering every column this is
        exactly :meth:`balanced`.
        """
        active = sorted({int(g) for g in gpus})
        if not active:
            raise PlacementError("balanced_subset needs at least one GPU")
        if active[0] < 0 or active[-1] >= num_gpus:
            raise PlacementError(
                f"subset gpus must be in [0, {num_gpus}), got {active}"
            )
        if len(active) == num_gpus:
            return cls.balanced(num_experts, num_gpus, slots_per_gpu)
        inner = cls.balanced(num_experts, len(active), slots_per_gpu)
        counts = np.zeros((num_experts, num_gpus), dtype=np.int64)
        counts[:, active] = inner.counts_view
        return cls(counts, slots_per_gpu)

    @classmethod
    def expert_parallel(cls, num_experts: int, num_gpus: int) -> "Placement":
        """Classic expert parallelism: experts striped 1-deep over GPUs.

        Used by the DeepSpeed baseline. ``slots_per_gpu`` is set to exactly
        fit the static layout, so no dynamic adjustment is possible.
        """
        if num_experts < 1 or num_gpus < 1:
            raise PlacementError("experts and gpus must be >= 1")
        counts = np.zeros((num_experts, num_gpus), dtype=np.int64)
        for expert in range(num_experts):
            counts[expert, expert % num_gpus] += 1
        slots = int(counts.sum(axis=0).max())
        return cls(counts, slots)

    # ------------------------------------------------------------------
    # Validation & invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`PlacementError` if any invariant is violated."""
        if self._slots_per_gpu < 1:
            raise PlacementError("slots_per_gpu must be >= 1")
        if (self._counts < 0).any():
            raise PlacementError("vExpert counts must be non-negative")
        per_expert = self._counts.sum(axis=1)
        if (per_expert < 1).any():
            orphan = int(np.argmin(per_expert))
            raise PlacementError(f"expert {orphan} has no vExpert")
        per_gpu = self._counts.sum(axis=0)
        if (per_gpu > self._slots_per_gpu).any():
            full = int(np.argmax(per_gpu))
            raise PlacementError(
                f"gpu {full} hosts {per_gpu[full]} vExperts but has only "
                f"{self._slots_per_gpu} slots"
            )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_experts(self) -> int:
        return self._counts.shape[0]

    @property
    def num_gpus(self) -> int:
        return self._counts.shape[1]

    @property
    def slots_per_gpu(self) -> int:
        return self._slots_per_gpu

    @property
    def total_slots(self) -> int:
        return self.num_gpus * self._slots_per_gpu

    @property
    def counts(self) -> np.ndarray:
        """Copy of the vExpert count matrix ``(experts, gpus)``."""
        return self._counts.copy()

    @property
    def counts_view(self) -> np.ndarray:
        """Read-only view of the count matrix (no copy).

        Hot paths (routing, cost evaluation) read the placement hundreds of
        times per scheduling round; the view avoids an O(E*G) copy per read.
        The view tracks in-place mutation — do not hold it across placement
        changes unless that is what you want.
        """
        view = self._counts.view()
        view.flags.writeable = False
        return view

    @property
    def version(self) -> int:
        """Monotone counter bumped by every mutation.

        A (placement object, version) pair identifies a placement state
        cheaply: evaluator caches use it to detect staleness in O(1) instead
        of hashing the full count matrix. :meth:`rollback` restores the
        version captured by its token, so a trial that was fully undone
        compares equal to the state it started from.
        """
        return self._version

    @property
    def state_token(self) -> int:
        """Globally unique identifier of this object's *current* content.

        Unlike :attr:`version` (a per-object counter, so two different
        mutations branching from the same rolled-back state can share a
        version number while holding different counts), the token is drawn
        from a process-wide monotone counter on construction and on every
        mutation, and :meth:`rollback` restores the token captured when
        its trial began. A ``(id(placement), state_token)`` pair therefore
        identifies placement content unambiguously for the object's
        lifetime -- the property the step-cost memo's O(1) re-key relies
        on (:class:`~repro.core.cost_model.MemoizedStepCost`).
        """
        return self._state_token

    def row(self, expert: int) -> np.ndarray:
        """Copy of one expert's per-GPU vExpert counts."""
        self._check_expert(expert)
        return self._counts[expert].copy()

    def count(self, expert: int, gpu: int) -> int:
        self._check_expert(expert)
        self._check_gpu(gpu)
        return int(self._counts[expert, gpu])

    def replicas(self, expert: int) -> int:
        """Total number of vExperts allocated to ``expert`` (``n_e``)."""
        self._check_expert(expert)
        return int(self._counts[expert].sum())

    def replica_counts(self) -> np.ndarray:
        """Vector ``n_e`` for all experts."""
        return self._counts.sum(axis=1)

    def gpus_of(self, expert: int) -> tuple[int, ...]:
        """GPUs holding at least one vExpert of ``expert``."""
        self._check_expert(expert)
        return tuple(int(g) for g in np.flatnonzero(self._counts[expert]))

    def replica_groups(self) -> dict[int, tuple[int, ...]]:
        """Maps every expert to its replica GPU group."""
        held = self._counts > 0
        gpus = np.nonzero(held)[1].tolist()  # row-major: by expert, then GPU
        groups: dict[int, tuple[int, ...]] = {}
        start = 0
        for expert, size in enumerate(held.sum(axis=1).tolist()):
            groups[expert] = tuple(gpus[start : start + size])
            start += size
        return groups

    def used_slots(self, gpu: int) -> int:
        self._check_gpu(gpu)
        return int(self._counts[:, gpu].sum())

    def free_slots(self, gpu: int) -> int:
        return self._slots_per_gpu - self.used_slots(gpu)

    def experts_on(self, gpu: int) -> tuple[int, ...]:
        self._check_gpu(gpu)
        return tuple(int(e) for e in np.flatnonzero(self._counts[:, gpu]))

    # ------------------------------------------------------------------
    # Mutation (used by the primitives; prefer applying PlacementActions)
    # ------------------------------------------------------------------
    def _mutate(self, *cells: tuple[int, int, int]) -> None:
        """Apply per-cell count deltas; the single funnel every mutation
        goes through, so the journal, version and signature cache can
        never drift from the count matrix."""
        for expert, gpu, delta in cells:
            self._counts[expert, gpu] += delta
        if self._journal is not None:
            self._journal.extend(cells)
        self._version += 1
        self._state_token = next(Placement._state_counter)
        self._signature_cache = None

    def add_vexpert(self, expert: int, gpu: int) -> None:
        """Bind one free slot on ``gpu`` to ``expert``."""
        self._check_expert(expert)
        self._check_gpu(gpu)
        if self.free_slots(gpu) < 1:
            raise PlacementError(f"gpu {gpu} has no free vExpert slot")
        self._mutate((expert, gpu, 1))

    def remove_vexpert(self, expert: int, gpu: int) -> None:
        """Release one vExpert of ``expert`` from ``gpu``."""
        self._check_expert(expert)
        self._check_gpu(gpu)
        if self._counts[expert, gpu] < 1:
            raise PlacementError(f"expert {expert} has no vExpert on gpu {gpu}")
        if self.replicas(expert) <= 1:
            raise PlacementError(
                f"cannot remove the last vExpert of expert {expert}"
            )
        self._mutate((expert, gpu, -1))

    def move_vexpert(self, expert: int, src: int, dst: int) -> None:
        """Relocate one vExpert of ``expert`` from ``src`` to ``dst``."""
        if src == dst:
            raise PlacementError("migrate source and destination must differ")
        self._check_expert(expert)
        self._check_gpu(src)
        self._check_gpu(dst)
        if self._counts[expert, src] < 1:
            raise PlacementError(f"expert {expert} has no vExpert on gpu {src}")
        if self.free_slots(dst) < 1:
            raise PlacementError(f"gpu {dst} has no free vExpert slot")
        self._mutate((expert, src, -1), (expert, dst, 1))

    def swap_vexperts(self, expert_a: int, gpu_a: int, expert_b: int, gpu_b: int) -> None:
        """Exchange one vExpert of ``expert_a``@``gpu_a`` with one of
        ``expert_b``@``gpu_b`` (the paper's Migrate exchange)."""
        if gpu_a == gpu_b:
            raise PlacementError("swap requires distinct GPUs")
        self._check_expert(expert_a)
        self._check_expert(expert_b)
        self._check_gpu(gpu_a)
        self._check_gpu(gpu_b)
        if self._counts[expert_a, gpu_a] < 1:
            raise PlacementError(f"expert {expert_a} has no vExpert on gpu {gpu_a}")
        if self._counts[expert_b, gpu_b] < 1:
            raise PlacementError(f"expert {expert_b} has no vExpert on gpu {gpu_b}")
        self._mutate(
            (expert_a, gpu_a, -1),
            (expert_b, gpu_b, -1),
            (expert_a, gpu_b, 1),
            (expert_b, gpu_a, 1),
        )

    # ------------------------------------------------------------------
    # Trial journal (what-if search without per-candidate copies)
    # ------------------------------------------------------------------
    def begin_trial(self) -> TrialToken:
        """Start recording mutations for a later :meth:`rollback`.

        Returns an opaque token; trials nest (roll back inner tokens before
        outer ones). While a journal is active the placement can be mutated
        freely — including through the normal primitives — and restored to
        the token's state in O(mutations) instead of copying the whole
        E x D matrix per candidate.
        """
        if self._journal is None:
            self._journal = []
        token = (len(self._journal), self._version)
        self._trial_state_tokens[token] = self._state_token
        return token

    def rollback(self, token: TrialToken) -> None:
        """Undo every mutation recorded after ``token`` was issued.

        Restores the count matrix, the version counter and (implicitly) the
        signature, so caches keyed on ``(placement, version)`` remain valid
        across a trial that was fully undone.
        """
        depth, version = token
        journal = self._journal
        if journal is None or depth > len(journal):
            raise PlacementError("rollback token does not match an open trial")
        while len(journal) > depth:
            expert, gpu, delta = journal.pop()
            self._counts[expert, gpu] -= delta
        self._version = version
        # Restore the state token captured when the trial began (a forged
        # token that passed the depth check falls back to a fresh token,
        # which is always safe -- it can only cause a cache miss).
        self._state_token = self._trial_state_tokens.pop(
            token, None
        ) or next(Placement._state_counter)
        if depth == 0:
            self._journal = None
            self._trial_state_tokens.clear()
        self._signature_cache = None

    @contextmanager
    def trial(self) -> Iterator["Placement"]:
        """Context manager: mutate freely inside, always rolled back on exit.

        The single-candidate what-if idiom (custom planners, tests; the
        built-in searchers batch candidates arithmetically instead)::

            with placement.trial() as t:
                action.apply(t)
                time = evaluator.trial_time(t, changed=(e0, e1))
            # placement is back to its pre-trial state here
        """
        token = self.begin_trial()
        try:
            yield self
        finally:
            self.rollback(token)

    # ------------------------------------------------------------------
    # Utility
    # ------------------------------------------------------------------
    def copy(self) -> "Placement":
        clone = Placement(self._counts, self._slots_per_gpu)
        clone._signature_cache = self._signature_cache
        return clone

    def signature(self) -> bytes:
        """Hashable snapshot of the mapping (cached until the next mutation).

        Used for change detection and as the exact content key of the
        step-cost memo; the cache means repeated queries on an unchanged
        placement cost O(1) instead of an O(E*G) ``tobytes``.
        """
        if self._signature_cache is None:
            self._signature_cache = self._counts.tobytes()
        return self._signature_cache

    def memory_bytes_per_gpu(self, expert_state_bytes: int) -> np.ndarray:
        """Model-state bytes held by each GPU.

        Packed vExperts (same expert, same GPU) share one copy of the
        weights, so memory counts *distinct* experts per GPU.
        """
        distinct = (self._counts > 0).sum(axis=0)
        return distinct * expert_state_bytes

    def _check_expert(self, expert: int) -> None:
        if not 0 <= expert < self.num_experts:
            raise PlacementError(
                f"expert {expert} out of range [0, {self.num_experts})"
            )

    def _check_gpu(self, gpu: int) -> None:
        if not 0 <= gpu < self.num_gpus:
            raise PlacementError(f"gpu {gpu} out of range [0, {self.num_gpus})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return (
            self._slots_per_gpu == other._slots_per_gpu
            and np.array_equal(self._counts, other._counts)
        )

    def __repr__(self) -> str:
        return (
            f"Placement(experts={self.num_experts}, gpus={self.num_gpus}, "
            f"slots_per_gpu={self._slots_per_gpu})"
        )
