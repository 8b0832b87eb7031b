"""MPI-flavoured layer over the multirail engine (the paper's future work).

The paper's conclusion plans to "integrate NewMadeleine in the
MPICH2-Nemesis software stack so as to use the multirail capabilities ...
within the widespread MPI implementation".  This module provides that
integration's *shape*: a rank-addressed :class:`Communicator` whose
point-to-point calls ride the engine (and therefore the strategies), plus
timing-faithful collectives (barrier, bcast, gather, alltoall).

The API follows mpi4py's lower-case convention.  Because this is a
timing simulator, messages carry *sizes*, not payloads; a collective's
result is when it completes.  Blocking calls are generator coroutines to
``yield from`` inside simulation processes::

    world = MpiWorld.create(4, strategy="hetero_split")

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, "1M")
        elif comm.rank == 1:
            yield from comm.recv(0)
        yield from comm.barrier()

    world.spawn_all(program)
    world.run()

Collectives default to the original naive compositions (selectable
explicitly as ``algorithm="naive"`` — that path is bit-identical to
older revisions).  The classic schedules live in
:mod:`repro.api.collectives` and are chosen per call
(``comm.bcast("4M", algorithm="ring")``), per world
(``MpiWorld.create(8, collectives={"alltoall": "ring"})``), or by the
cost model (``algorithm="auto"``).  Worlds can also span switched
fabrics: ``MpiWorld.create(fabric=Fabric.fat_tree(16))``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.api import collectives as coll
from repro.api.cluster import Cluster, ClusterBuilder, RunResult, StrategySpec
from repro.api.collectives import AlgorithmSelector
from repro.api.session import Session
from repro.core.packets import Message, RecvHandle
from repro.hardware.topology import Fabric
from repro.util.errors import ConfigurationError
from repro.util.units import parse_size

#: tag space reserved for collectives (user tags must stay below)
_COLLECTIVE_TAG_BASE = 1 << 20


def _rank_name(rank: int) -> str:
    return f"rank{rank}"


def _safe_size(size) -> int:
    """``parse_size`` that never raises — profiling metadata only (the
    schedule body re-parses the size and raises the proper error)."""
    try:
        return parse_size(size)
    except (ValueError, TypeError):
        return 0


class Communicator:
    """One rank's handle on the world (MPI_COMM_WORLD equivalent)."""

    def __init__(self, world: "MpiWorld", rank: int) -> None:
        self.world = world
        self.rank = rank
        self.session: Session = world.cluster.session(world.node_name(rank))
        self._collective_seq = 0
        #: resolved algorithm of the collective currently executing
        #: (read by the obs profiler after the schedule finishes)
        self._last_algorithm = "naive"
        #: per-rank profiled-op counter (ranks call collectives in the
        #: same order, so equal seq values line up across ranks)
        self._profile_seq = 0

    def peer_name(self, rank: int) -> str:
        """Node name of a rank (``rank3`` in default worlds; the fabric's
        node names when the world was built from one)."""
        return self.world.node_name(rank)

    def __repr__(self) -> str:
        return f"<Communicator rank {self.rank}/{self.size}>"

    @property
    def size(self) -> int:
        return self.world.size

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise ConfigurationError(
                f"rank {peer} outside 0..{self.size - 1}"
            )
        if peer == self.rank:
            raise ConfigurationError("self-sends are not modelled")

    # ------------------------------------------------------------------ #
    # point to point
    # ------------------------------------------------------------------ #

    def isend(self, dest: int, size: "int | str", tag: int = 0) -> Message:
        """Non-blocking send; completion via the message's ``done`` event."""
        self._check_peer(dest)
        if tag >= _COLLECTIVE_TAG_BASE or tag < 0:
            raise ConfigurationError(f"user tag {tag} outside [0, {_COLLECTIVE_TAG_BASE})")
        return self.session.isend(self.peer_name(dest), size, tag=tag)

    def irecv(self, source: Optional[int] = None, tag: Optional[int] = None) -> RecvHandle:
        """Non-blocking receive (None = wildcard, as in MPI_ANY_SOURCE)."""
        if source is not None:
            self._check_peer(source)
        return self.session.irecv(
            source=self.peer_name(source) if source is not None else None, tag=tag
        )

    def send(self, dest: int, size: "int | str", tag: int = 0) -> Iterator:
        """Blocking send: returns when the receiver has the message."""
        msg = self.isend(dest, size, tag=tag)
        result = yield from self.session.wait(msg)
        return result

    def recv(self, source: Optional[int] = None, tag: Optional[int] = None) -> Iterator:
        """Blocking receive: returns the matched message."""
        handle = self.irecv(source=source, tag=tag)
        result = yield from self.session.wait(handle)
        return result

    def sendrecv(
        self, dest: int, size: "int | str", source: Optional[int] = None, tag: int = 0
    ) -> Iterator:
        """Concurrent send + receive (the ping-pong building block)."""
        handle = self.irecv(source=source, tag=tag)
        self.isend(dest, size, tag=tag)
        result = yield from self.session.wait(handle)
        return result

    # ------------------------------------------------------------------ #
    # collectives (timing-faithful classic algorithms)
    # ------------------------------------------------------------------ #

    #: tag slots reserved per collective call (bounds the round count)
    _TAGS_PER_COLLECTIVE = 64

    def _next_collective_tag(self, span: int = _TAGS_PER_COLLECTIVE) -> int:
        # Every rank calls collectives in the same order (MPI semantics),
        # so a per-rank counter yields matching tag blocks across ranks.
        # Algorithms needing more than one 64-slot block (e.g. a ring
        # all-to-all across 128 ranks) reserve several; the naive paths
        # keep the default span, so their tag values never move.
        tag = (
            _COLLECTIVE_TAG_BASE
            + self._collective_seq * self._TAGS_PER_COLLECTIVE
        )
        blocks = -(-max(1, span) // self._TAGS_PER_COLLECTIVE)
        self._collective_seq += blocks
        return tag

    def _resolve_algorithm(
        self, collective: str, algorithm: Optional[str], nbytes: int
    ) -> str:
        """Per-call override > world default > ``"naive"``; ``"auto"``
        goes through the world's cost-model selector."""
        if algorithm is None:
            algorithm = self.world.collectives.get(collective, "naive")
        coll.validate_algorithm(collective, algorithm)
        if algorithm == "auto":
            algorithm = self.world.selector().select(
                collective,
                max(1, nbytes),
                self.size,
                health=self.world.fabric_health(),
            )
        self._last_algorithm = algorithm
        return algorithm

    # -- obs: collective critical-path profiler (docs/observability.md) --

    def _profiling(self) -> bool:
        """One ``obs.on`` read when off — the obs overhead contract."""
        obs = self.world.cluster.obs
        return obs.on and obs.collectives.enabled

    def _profile(self, name: str, nbytes: int, body: Iterator) -> Iterator:
        """Run a collective generator inside a profiling scope.

        Purely passive: marks this rank's send log before the schedule
        runs and hands the profiler the slice of messages it posted
        afterwards — no extra event, no timestamp moved.  Completion
        times are read lazily once the run drains.
        """
        cluster = self.world.cluster
        engine = self.session.engine
        mark = len(engine.sent_log)
        t0 = cluster.sim.now
        self._last_algorithm = "naive"
        yield from body
        cluster.obs.collectives.finish_op(
            rank=self.rank,
            node=self.session.node,
            collective=name,
            algorithm=self._last_algorithm,
            nbytes=nbytes,
            seq=self._profile_seq,
            t_start=t0,
            t_end=cluster.sim.now,
            msgs=list(engine.sent_log[mark:]),
            hop_predict=self._hop_predict(),
        )
        self._profile_seq += 1

    def _hop_predict(self):
        """The cost model's memoized per-hop lookup, or None unsampled."""
        profiles = self.world.cluster.profiles
        if profiles is None or not profiles.estimators:
            return None
        return self.world.selector().hop

    def barrier(self) -> Iterator:
        """Dissemination barrier: ceil(log2(n)) rounds of 1-byte tokens.

        In round ``k`` every rank sends to ``rank + 2^k`` and waits for a
        token from ``rank - 2^k`` (mod n); after the last round all ranks
        are transitively synchronized.
        """
        body = self._barrier_impl()
        if self._profiling():
            yield from self._profile("barrier", 0, body)
        else:
            yield from body

    def _barrier_impl(self) -> Iterator:
        n = self.size
        self._last_algorithm = "dissemination"
        if n == 1:
            return
        base_tag = self._next_collective_tag()
        round_no = 0
        dist = 1
        while dist < n:
            peer_to = (self.rank + dist) % n
            peer_from = (self.rank - dist) % n
            self.session.isend(self.peer_name(peer_to), 1, tag=base_tag + round_no)
            handle = self.session.irecv(
                source=self.peer_name(peer_from), tag=base_tag + round_no
            )
            yield from self.session.wait(handle)
            dist *= 2
            round_no += 1

    def bcast(
        self, size: "int | str", root: int = 0,
        algorithm: Optional[str] = None,
    ) -> Iterator:
        """Broadcast of ``size`` bytes from ``root``.

        ``algorithm``: ``naive`` (the classic whole-message binomial
        tree, the default), ``binomial`` (segmented/pipelined tree),
        ``ring`` (segmented ring pipeline), ``doubling`` (scatter +
        allgather), or ``auto``.
        """
        body = self._bcast_impl(size, root, algorithm)
        if self._profiling():
            yield from self._profile("bcast", _safe_size(size), body)
        else:
            yield from body

    def _bcast_impl(
        self, size: "int | str", root: int, algorithm: Optional[str]
    ) -> Iterator:
        n = self.size
        self._check_root(root)
        nbytes = parse_size(size)
        if n == 1:
            return
        algo = self._resolve_algorithm("bcast", algorithm, nbytes)
        if algo != "naive":
            if algo == "doubling":
                span = 2 + max(1, math.ceil(math.log2(n)))
                tag = self._next_collective_tag(span=span)
                yield from coll.bcast_doubling(self, nbytes, root, tag)
                return
            segs = coll.pipeline_segments(nbytes, self.world.rail_estimators())
            tag = self._next_collective_tag(span=len(segs))
            impl = coll.bcast_binomial if algo == "binomial" else coll.bcast_ring
            yield from impl(self, nbytes, root, tag, segs)
            return
        tag = self._next_collective_tag()
        vrank = (self.rank - root) % n
        mask = 1
        while mask < n:
            if vrank & mask:
                parent = ((vrank ^ mask) + root) % n
                handle = self.session.irecv(source=self.peer_name(parent), tag=tag)
                yield from self.session.wait(handle)
                break
            mask <<= 1
        # The loop leaves ``mask`` at the stride above this rank's highest
        # forwarding distance (root: past the top); descend and forward.
        mask >>= 1
        while mask > 0:
            if vrank + mask < n:
                child = ((vrank + mask) + root) % n
                self.session.isend(self.peer_name(child), nbytes, tag=tag)
            mask >>= 1

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise ConfigurationError(f"root {root} outside 0..{self.size - 1}")

    def gather(
        self, size: "int | str", root: int = 0,
        algorithm: Optional[str] = None,
    ) -> Iterator:
        """Gather of ``size`` bytes per rank to ``root``.

        ``algorithm``: ``naive`` (linear, the default), ``binomial``
        (combining tree), ``ring`` (neighbour pipeline), or ``auto``.
        """
        body = self._gather_impl(size, root, algorithm)
        if self._profiling():
            yield from self._profile("gather", _safe_size(size), body)
        else:
            yield from body

    def _gather_impl(
        self, size: "int | str", root: int, algorithm: Optional[str]
    ) -> Iterator:
        self._check_root(root)
        nbytes = parse_size(size)
        if self.size > 1:
            algo = self._resolve_algorithm("gather", algorithm, nbytes)
            if algo != "naive":
                tag = self._next_collective_tag(span=1)
                impl = (
                    coll.gather_binomial if algo == "binomial" else coll.gather_ring
                )
                yield from impl(self, nbytes, root, tag)
                return
        tag = self._next_collective_tag()
        if self.rank == root:
            handles = [
                self.session.irecv(source=self.peer_name(r), tag=tag)
                for r in range(self.size)
                if r != root
            ]
            for h in handles:
                yield from self.session.wait(h)
        else:
            msg = self.session.isend(self.peer_name(root), nbytes, tag=tag)
            yield from self.session.wait(msg)

    def alltoall(
        self, size: "int | str", algorithm: Optional[str] = None
    ) -> Iterator:
        """Each rank sends ``size`` bytes to every other rank.

        ``algorithm``: ``naive`` (post everything at once, the default),
        ``ring`` (rank-shifted pairwise rounds — no port storm),
        ``doubling`` (Bruck, log rounds of aggregated blocks), ``rails``
        (RailS-style segmented/balanced schedule), or ``auto``.
        """
        body = self._alltoall_impl(size, algorithm)
        if self._profiling():
            yield from self._profile("alltoall", _safe_size(size), body)
        else:
            yield from body

    def _alltoall_impl(
        self, size: "int | str", algorithm: Optional[str]
    ) -> Iterator:
        nbytes = parse_size(size)
        n = self.size
        if n > 1:
            algo = self._resolve_algorithm("alltoall", algorithm, nbytes)
            if algo != "naive":
                if algo == "ring":
                    tag = self._next_collective_tag(span=n)
                    yield from coll.alltoall_ring(self, nbytes, tag)
                elif algo == "doubling":
                    span = max(1, math.ceil(math.log2(n)))
                    tag = self._next_collective_tag(span=span)
                    yield from coll.alltoall_doubling(self, nbytes, tag)
                else:  # rails
                    plan = self.world.alltoall_plan(
                        self._collective_seq,
                        nbytes,
                        lambda ests: coll.AlltoallPlan(
                            coll.uniform_matrix(n, nbytes), ests, source=nbytes
                        ),
                    )
                    yield from self._alltoallv_rails(plan)
                return
        tag = self._next_collective_tag()
        handles = [
            self.session.irecv(source=self.peer_name(r), tag=tag)
            for r in range(self.size)
            if r != self.rank
        ]
        for r in range(self.size):
            if r != self.rank:
                self.session.isend(self.peer_name(r), nbytes, tag=tag)
        for h in handles:
            yield from self.session.wait(h)

    def scatter(self, size: "int | str", root: int = 0) -> Iterator:
        """Root sends a distinct ``size``-byte block to every other rank.

        Linear (the root owns all the data, so the tree variants only
        move *more* bytes; linear matches MPICH's default for scatter of
        large blocks).
        """
        body = self._scatter_impl(size, root)
        if self._profiling():
            yield from self._profile("scatter", _safe_size(size), body)
        else:
            yield from body

    def _scatter_impl(self, size: "int | str", root: int) -> Iterator:
        self._check_root(root)
        nbytes = parse_size(size)
        self._last_algorithm = "linear"
        tag = self._next_collective_tag()
        if self.rank == root:
            last: Optional[Message] = None
            for r in range(self.size):
                if r != root:
                    last = self.session.isend(self.peer_name(r), nbytes, tag=tag)
            if last is not None:
                yield from self.session.wait(last)
        else:
            handle = self.session.irecv(source=self.peer_name(root), tag=tag)
            yield from self.session.wait(handle)

    def allgather(
        self, size: "int | str", algorithm: Optional[str] = None
    ) -> Iterator:
        """Every rank ends up with every rank's ``size``-byte block.

        ``algorithm``: ``naive`` (Bruck/dissemination, the default),
        ``ring`` (n-1 neighbour rounds, bandwidth-optimal), ``doubling``
        (recursive doubling on power-of-two worlds), or ``auto``.
        """
        body = self._allgather_impl(size, algorithm)
        if self._profiling():
            yield from self._profile("allgather", _safe_size(size), body)
        else:
            yield from body

    def _allgather_impl(
        self, size: "int | str", algorithm: Optional[str]
    ) -> Iterator:
        n = self.size
        nbytes = parse_size(size)
        if n == 1:
            return
        algo = self._resolve_algorithm("allgather", algorithm, nbytes)
        if algo != "naive":
            if algo == "ring":
                tag = self._next_collective_tag(span=n - 1)
                yield from coll.allgather_ring(self, nbytes, tag)
            else:  # doubling
                span = max(1, math.ceil(math.log2(n)))
                tag = self._next_collective_tag(span=span)
                yield from coll.allgather_doubling(self, nbytes, tag)
            return
        base_tag = self._next_collective_tag()
        round_no = 0
        dist = 1
        accumulated = 1
        while dist < n:
            peer_to = (self.rank - dist) % n
            peer_from = (self.rank + dist) % n
            block = min(accumulated, n - accumulated) * nbytes
            self.session.isend(
                self.peer_name(peer_to), max(1, block), tag=base_tag + round_no
            )
            handle = self.session.irecv(
                source=self.peer_name(peer_from), tag=base_tag + round_no
            )
            yield from self.session.wait(handle)
            accumulated = min(n, accumulated * 2)
            dist *= 2
            round_no += 1

    def reduce(
        self, size: "int | str", root: int = 0,
        algorithm: Optional[str] = None,
    ) -> Iterator:
        """Reduction of ``size``-byte contributions to ``root``.

        ``algorithm``: ``naive`` (whole-message binomial tree, the
        default — the mirror image of :meth:`bcast`), ``binomial``
        (segmented/pipelined tree), ``ring`` (reduce-scatter + block
        gather), or ``auto``.  Combination cost is the receive itself —
        payloads are sizes, not values.
        """
        body = self._reduce_impl(size, root, algorithm)
        if self._profiling():
            yield from self._profile("reduce", _safe_size(size), body)
        else:
            yield from body

    def _reduce_impl(
        self, size: "int | str", root: int, algorithm: Optional[str]
    ) -> Iterator:
        n = self.size
        self._check_root(root)
        nbytes = parse_size(size)
        if n == 1:
            return
        algo = self._resolve_algorithm("reduce", algorithm, nbytes)
        if algo != "naive":
            if algo == "ring":
                tag = self._next_collective_tag(span=n)
                yield from coll.reduce_ring(self, nbytes, root, tag)
                return
            segs = coll.pipeline_segments(nbytes, self.world.rail_estimators())
            tag = self._next_collective_tag(span=len(segs))
            yield from coll.reduce_binomial(self, nbytes, root, tag, segs)
            return
        tag = self._next_collective_tag()
        vrank = (self.rank - root) % n
        # Receive from children: strides below our lowest set bit.
        mask = 1
        while mask < n:
            if vrank & mask:
                break
            child_v = vrank + mask
            if child_v < n:
                child = (child_v + root) % n
                handle = self.session.irecv(source=self.peer_name(child), tag=tag)
                yield from self.session.wait(handle)
            mask <<= 1
        # Then send our combined contribution to the parent (root: none).
        if vrank != 0:
            parent = ((vrank ^ mask) + root) % n
            msg = self.session.isend(self.peer_name(parent), nbytes, tag=tag)
            yield from self.session.wait(msg)

    def alltoallv(
        self,
        matrix: Sequence[Sequence["int | str"]],
        algorithm: Optional[str] = None,
    ) -> Iterator:
        """Irregular all-to-all from a global n×n traffic ``matrix``
        (``matrix[i][j]`` = bytes rank i sends rank j; zero diagonal).

        Every rank receives the same matrix — the traffic-engineering
        setting of RailS, where the demand is known (e.g. an MoE
        router's expert counts).  ``algorithm``: ``naive`` (one message
        per flow, posted at once — uniform striping) or ``rails`` (the
        segmented, rank-shifted, windowed balanced schedule); ``auto``
        picks ``rails``.
        """
        body = self._alltoallv_impl(matrix, algorithm)
        if self._profiling():
            try:
                nbytes = sum(_safe_size(v) if v else 0 for v in matrix[self.rank])
            except (TypeError, IndexError):
                nbytes = 0
            yield from self._profile("alltoallv", nbytes, body)
        else:
            yield from body

    def _alltoallv_impl(
        self,
        matrix: Sequence[Sequence["int | str"]],
        algorithm: Optional[str],
    ) -> Iterator:
        n = self.size
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ConfigurationError(
                f"traffic matrix must be {n}x{n} for this world"
            )
        rows = [list(row) for row in matrix]
        plan = self.world.alltoall_plan(
            self._collective_seq,
            rows,
            lambda ests: coll.AlltoallPlan.from_rows(rows, ests),
        )
        algo = self._resolve_algorithm("alltoallv", algorithm, max(1, plan.peak))
        if algo == "replan":
            yield from self._alltoallv_replan(plan)
            return
        if algo in ("rails", "auto"):
            yield from self._alltoallv_rails(plan)
            return
        tag = self._next_collective_tag()
        yield from coll.alltoallv_naive(self, plan.matrix, tag)

    def _alltoallv_rails(self, plan: coll.AlltoallPlan) -> Iterator:
        """Shared rails path for :meth:`alltoall`/:meth:`alltoallv`."""
        tag = self._next_collective_tag(span=plan.span)
        yield from coll.alltoallv_rails(self, plan, tag)

    def _alltoallv_replan(self, plan: coll.AlltoallPlan) -> Iterator:
        """Re-planning balanced path (``algorithm="replan"``)."""
        tag = self._next_collective_tag(span=plan.span)
        profiles = self.world.cluster.profiles
        price = (
            self.world.selector().hop
            if profiles is not None and profiles.estimators
            else None
        )
        yield from coll.alltoallv_rails_replan(self, plan, tag, price=price)


class MpiWorld:
    """A set of ranks over a multirail fabric (full mesh by default)."""

    def __init__(
        self,
        cluster: Cluster,
        size: int,
        node_names: Optional[Sequence[str]] = None,
        collectives: Optional[Dict[str, str]] = None,
    ) -> None:
        self.cluster = cluster
        self.size = size
        if node_names is None:
            node_names = [_rank_name(r) for r in range(size)]
        if len(node_names) != size:
            raise ConfigurationError(
                f"world of {size} ranks got {len(node_names)} node names"
            )
        self._node_names: List[str] = list(node_names)
        overrides = dict(collectives) if collectives else {}
        if not overrides and cluster.collectives:
            overrides = dict(cluster.collectives)
        self.collectives: Dict[str, str] = coll.validate_overrides(overrides)
        self._selector: Optional[AlgorithmSelector] = None
        #: balanced all-to-all plans by call sequence: [plan, ranks to come]
        self._plans: Dict[int, list] = {}
        self.comms: List[Communicator] = [Communicator(self, r) for r in range(size)]

    def __repr__(self) -> str:
        return f"<MpiWorld size={self.size}>"

    def node_name(self, rank: int) -> str:
        """Cluster node name hosting a rank."""
        if not 0 <= rank < self.size:
            raise ConfigurationError(f"rank {rank} outside 0..{self.size - 1}")
        return self._node_names[rank]

    def rail_estimators(self) -> List:
        """Sampled per-technology estimators (sorted; empty unsampled).

        The hetero-split curves the collective algorithms size their
        pipeline segments from.
        """
        profiles = self.cluster.profiles
        if profiles is None:
            return []
        return [profiles.estimators[t] for t in sorted(profiles.estimators)]

    def alltoall_plan(
        self,
        seq: int,
        source: object,
        build: Callable[[List], coll.AlltoallPlan],
    ) -> coll.AlltoallPlan:
        """The balanced all-to-all plan of the collective call at ``seq``.

        Every rank reaches a call with the same collective sequence
        number (MPI ordering), so the first rank there builds the plan
        (``build(estimators)``) and the others reuse it — each only when
        its own ``source`` (the matrix rows, or the uniform block size)
        and the rail estimators equal the planned ones.  A rank that
        differs builds its own, so a bad or mismatched matrix raises on
        that rank exactly as if nothing were shared.  A plan is dropped
        once every other rank has reached its call.
        """
        estimators = self.rail_estimators()
        entry = self._plans.get(seq)
        if entry is None:
            plan = build(estimators)
            if self.size > 1:
                self._plans[seq] = [plan, self.size - 1]
            return plan
        plan = entry[0]
        entry[1] -= 1
        if not entry[1]:
            del self._plans[seq]
        if plan.source == source and plan.estimators == estimators:
            return plan
        return build(estimators)

    def fabric_health(self) -> Optional[coll.FabricHealth]:
        """Liveness view for feasibility filtering, or ``None`` healthy.

        Only built when a fault schedule is armed against the cluster —
        an un-faulted world skips the probing entirely, so the healthy
        ``auto`` path stays byte-identical to pre-fault-surface builds.
        """
        if getattr(self.cluster, "fault_injector", None) is None:
            return None
        return coll.FabricHealth(self.cluster, self._node_names)

    def selector(self) -> AlgorithmSelector:
        """The cost-model selector behind ``algorithm="auto"``."""
        if self._selector is None:
            profiles = self.cluster.profiles
            if profiles is None or not profiles.estimators:
                raise ConfigurationError(
                    'algorithm="auto" needs sampled profiles; build the '
                    "cluster with sampling enabled"
                )
            self._selector = AlgorithmSelector(profiles.estimators)
        return self._selector

    @classmethod
    def create(
        cls,
        n_ranks: Optional[int] = None,
        strategy: StrategySpec = "hetero_split",
        rails: Sequence[str] = ("myri10g", "quadrics"),
        profiles=None,
        fabric: Optional[Fabric] = None,
        collectives: Optional[Dict[str, str]] = None,
        observability: bool = False,
    ) -> "MpiWorld":
        """Build a world — a full mesh by default (every rank pair joined
        by one wire per technology, the paper's testbed generalized), or
        any :class:`~repro.hardware.topology.Fabric`::

            MpiWorld.create(8)                                # full mesh
            MpiWorld.create(fabric=Fabric.fat_tree(16))       # switched
            MpiWorld.create(8, collectives={"alltoall": "ring"})

        ``collectives`` sets the world's default algorithm per
        collective; individual calls can still override it.
        ``observability=True`` arms the full obs bundle (tracer, metrics,
        link/spine accounting, collective profiler, flight recorder).
        """
        if fabric is None:
            if n_ranks is None:
                raise ConfigurationError("pass n_ranks or a fabric")
            fabric = Fabric.full_mesh(n_ranks, rails)
        elif n_ranks is not None and n_ranks != fabric.size:
            raise ConfigurationError(
                f"n_ranks {n_ranks} != fabric size {fabric.size}; "
                "pass one or the other"
            )
        ranked = fabric.with_node_names(
            [_rank_name(r) for r in range(fabric.size)]
        )
        builder = (
            ClusterBuilder(strategy=strategy)
            .fabric(ranked)
            .collectives(collectives)
            .observability(observability)
        )
        if profiles is not None:
            builder.sampling(profiles=profiles)
        return cls(builder.build(), fabric.size)

    @classmethod
    def from_cluster(
        cls,
        cluster: Cluster,
        node_names: Optional[Sequence[str]] = None,
        collectives: Optional[Dict[str, str]] = None,
    ) -> "MpiWorld":
        """Wrap an already-built cluster: one rank per node.

        Rank order follows ``node_names``, else the cluster's fabric
        description (config-built clusters carry one), else sorted node
        names.  Collective defaults fall back to the cluster's
        (:meth:`ClusterBuilder.collectives`, the config ``collectives:``
        section).
        """
        if node_names is None:
            if cluster.fabric is not None:
                node_names = list(cluster.fabric.nodes)
            else:
                node_names = sorted(cluster.engines)
        unknown = [n for n in node_names if n not in cluster.engines]
        if unknown:
            raise ConfigurationError(
                f"unknown node(s) {unknown}; have {sorted(cluster.engines)}"
            )
        return cls(
            cluster, len(node_names), node_names=node_names,
            collectives=collectives,
        )

    def comm(self, rank: int) -> Communicator:
        try:
            return self.comms[rank]
        except IndexError:
            raise ConfigurationError(f"no rank {rank}; world size {self.size}") from None

    def spawn_all(self, program: Callable[[Communicator], Iterator]) -> List:
        """Start ``program(comm)`` as one simulation process per rank."""
        return [
            self.cluster.sim.spawn(program(comm), name=f"rank{comm.rank}")
            for comm in self.comms
        ]

    def run(self, until: Optional[float] = None) -> "RunResult":
        return self.cluster.run(until=until)
