"""Petri-net performance interfaces (the paper's third representation).

:class:`PetriNetInterface` adapts a :class:`repro.petri.PetriNet` into
the common :class:`~repro.core.interface.PerformanceInterface` contract:
it knows how to turn one workload item into tokens (``tokenize``), run
the net, and read a latency out of the completions.

The net itself is the shippable artifact — authors provide it as
``.pnet`` text (kept in ``pnet_text`` for the Table 1 complexity
metric) or as a programmatic factory.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generic, TypeVar

from repro.hw.stats import exact_residual
from repro.perf.fingerprint import UncacheableError, net_fingerprint
from repro.petri import (
    BatchEvaluator,
    CompiledNet,
    PetriNet,
    SimResult,
    SimulationError,
    make_simulator,
    supports,
)

from .interface import PerformanceInterface

if TYPE_CHECKING:
    from repro.perf import EvalCache

ItemT = TypeVar("ItemT")


@dataclass(frozen=True)
class Injection:
    """One token to feed into the net for a workload item."""

    place: str
    payload: Any
    at: float = 0.0


#: Transition-name substrings that classify a transition into the
#: ``memory`` stage under the default stage map (DRAM bursts, DMA
#: descriptor fetches, loads).  Everything else is ``compute``.
MEMORY_STAGE_HINTS = ("dram", "mem", "dma", "load", "fetch", "read")


def default_stage_map(transition_name: str) -> str:
    """Classify one transition into the attribution stage vocabulary
    (see :data:`repro.obs.attribution.STAGES`)."""
    lowered = transition_name.lower()
    if any(hint in lowered for hint in MEMORY_STAGE_HINTS):
        return "memory"
    return "compute"


@dataclass(frozen=True)
class PredictedDecomposition:
    """The interface's predicted per-stage latency split for one item.

    ``stages`` folds per-transition busy cycles into the shared stage
    vocabulary, plus the interface ``epilogue`` and an ``overlap``
    residual (negative when transitions run concurrently — their busy
    cycles then sum to *more* than the makespan; positive when tokens
    sat in places with no transition busy).  Left-to-right summation of
    ``stages`` values is **bit-identical** to :attr:`total`, which is
    itself bit-identical to ``PetriNetInterface.latency(item)`` — the
    same invariant :mod:`repro.obs.attribution` maintains on the
    observed side, so the two decompositions can be compared stage by
    stage with no float slop.
    """

    accelerator: str
    total: float  # == interface.latency(item), bit-exact
    stages: dict[str, float]  # insertion-ordered; "overlap" last
    transitions: dict[str, float]  # per-transition busy cycles


class PetriNetInterface(PerformanceInterface[ItemT], Generic[ItemT]):
    """Runs a performance-IR net over workload items.

    Args:
        accelerator: Name of the accelerator described.
        net_factory: Builds the net (called once; the simulator resets
            marking between runs).
        tokenize: Maps a workload item to the tokens to inject.
        sink: Place whose completions mark finished work.
        epilogue: Fixed cycles appended after the last completion
            (drain/flush the net does not model).
        expected_completions: How many sink completions one item should
            produce.  Defaults to the number of injected tokens; nets
            with resident bookkeeping tokens (mutexes, credits) override
            this, since those legitimately remain after quiescence.
        engine: Simulation engine — ``"auto"`` (the batch engine when
            the net is in the compiled subset, the reference interpreter
            otherwise) or ``"reference"``.
        cache: Optional :class:`repro.perf.EvalCache`: identical
            (net, injections) evaluations are served from the cache
            instead of re-simulated.  May also be attached later by
            assigning to ``self.cache``.
        tracer: Optional :class:`repro.obs.Tracer`: simulations emit
            per-firing spans into it (see :mod:`repro.petri.simulate`).
            Cache *hits* skip the simulation entirely and therefore
            emit no spans — the trace shows work actually done.

    On ``engine="auto"`` the net is fixed at first pricing: its lowering
    and fingerprint are snapshotted together then, and every later
    price and cache key comes from that snapshot, so mutating
    ``self.net`` afterwards changes neither.  Build a new interface to
    price a changed net.  ``engine="reference"`` simulates the live net
    and fingerprints it on every lookup.
    """

    representation = "petri-net"

    def __init__(
        self,
        accelerator: str,
        net_factory: Callable[[], PetriNet],
        tokenize: Callable[[ItemT], Sequence[Injection]],
        *,
        sink: str = "out",
        epilogue: float = 0.0,
        pnet_text: str | None = None,
        expected_completions: Callable[[ItemT], int] | None = None,
        engine: str = "auto",
        cache: "EvalCache | None" = None,
        tracer=None,
    ):
        self.accelerator = accelerator
        self.net = net_factory()
        self.tokenize = tokenize
        self.sink = sink
        self.epilogue = epilogue
        self.pnet_text = pnet_text
        self._expected = expected_completions
        self.engine = engine
        self.cache = cache
        self.tracer = tracer
        # The net as first priced: its lowering (None = net unsupported)
        # and fingerprint (None = unfingerprintable), taken together so a
        # cache key names the net its value was computed from.
        self._pinned: tuple[CompiledNet | None, str | None] | None = None
        self.batch_evaluator: BatchEvaluator | None = None

    def _pin(self) -> tuple[CompiledNet | None, str | None]:
        if self._pinned is None:
            compiled = CompiledNet(self.net) if supports(self.net) else None
            try:
                fingerprint: str | None = net_fingerprint(self.net)
            except UncacheableError:
                fingerprint = None
            self._pinned = (compiled, fingerprint)
        return self._pinned

    def _lowering(self) -> CompiledNet | None:
        """The net lowered once for every simulation this interface runs."""
        return self._pin()[0]

    def _namespace(self) -> PetriNet | str:
        """The net identity this interface's cache keys carry: the pinned
        fingerprint when values come from the pinned lowering, else the
        live net, which :meth:`EvalCache.key` fingerprints per lookup."""
        if self.engine == "auto":
            compiled, fingerprint = self._pin()
            if compiled is not None and fingerprint is not None:
                return fingerprint
        return self.net

    def _tokens(self, item: ItemT) -> tuple[Sequence[Injection], int]:
        """``item``'s injections and how many completions they must make."""
        injections = self.tokenize(item)
        expected = self._expected
        return injections, len(injections) if expected is None else expected(item)

    def _simulate(
        self, injections: Sequence[Injection], expected: int, tracer
    ) -> SimResult:
        """Run the net once over ``injections`` and check that ``expected``
        tokens completed (raising with the stuck marking otherwise)."""
        sim = make_simulator(
            self.net,
            sinks=(self.sink,),
            engine=self.engine,
            compiled=self._lowering() if self.engine == "auto" else None,
            tracer=tracer,
        )
        for inj in injections:
            sim.inject(inj.place, inj.payload, at=inj.at)
        result = sim.run()
        done = len(result.completions[self.sink])
        if done != expected:
            raise RuntimeError(
                f"net {self.net.name!r} completed {done}/{expected} tokens; "
                f"stuck marking: { {p: n for p, n in self.net.marking().items() if n} }"
            )
        return result

    def predict_decomposition(
        self,
        item: ItemT,
        *,
        stage_map: Callable[[str], str] | dict[str, str] | None = None,
    ) -> PredictedDecomposition:
        """Predict *where* the cycles of one item go, not just how many.

        Runs the net once (per-item engine, no tracer — decomposition
        must never perturb a live trace) and harvests each transition's
        cumulative busy-time delta, then folds the deltas into the
        attribution stage vocabulary via ``stage_map`` (a callable or
        dict over transition names; defaults to
        :func:`default_stage_map`).  The stage values fold left-to-right
        to exactly :meth:`latency`'s scalar prediction — cached under a
        dedicated ``("stages", ...)`` key (JSON-friendly, so it spills
        to the persistent cache tier like makespans do).
        """
        injections, expected = self._tokens(item)
        features = ("stages", expected, [(i.place, i.payload, i.at) for i in injections])

        def harvest() -> list:
            # The harvest needs its own simulation: latency() may be
            # answered from the makespan cache without running the net.
            # run() resets the net first, so post-run busy_time IS this
            # run's harvest.
            makespan = self._simulate(injections, expected, None).makespan()
            return [makespan, [[n, t.busy_time] for n, t in self.net.transitions.items()]]

        if self.cache is None:
            makespan, pairs = harvest()
        else:
            makespan, pairs = self.cache.get_or_compute(self._namespace(), features, harvest)
        per_transition = {str(n): float(c) for n, c in pairs}
        total = makespan + self.epilogue
        if stage_map is None:
            classify: Callable[[str], str] = default_stage_map
        elif isinstance(stage_map, dict):
            classify = lambda name: stage_map.get(name, "compute")  # noqa: E731
        else:
            classify = stage_map
        folded: dict[str, float] = {"memory": 0.0, "compute": 0.0}
        for name, cycles in per_transition.items():
            stage = classify(name)
            folded[stage] = folded.get(stage, 0.0) + cycles
        folded["epilogue"] = self.epilogue
        folded["overlap"] = exact_residual(list(folded.values()), total)
        return PredictedDecomposition(
            accelerator=self.accelerator,
            total=total,
            stages=folded,
            transitions=per_transition,
        )

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------
    def _batch_engine(self) -> BatchEvaluator | None:
        if self.batch_evaluator is None and (compiled := self._lowering()) is not None:
            self.batch_evaluator = BatchEvaluator(self.net, (self.sink,), compiled=compiled)
        return self.batch_evaluator

    def latency(self, item: ItemT) -> float:
        return self._evaluate((item,))[0]

    def evaluate_batch(self, items: Sequence[ItemT]) -> list[float]:
        """Latency for every item: one tokenize and cache pass, then all
        the misses in one engine call.  Bit-identical per item to
        :meth:`latency`, which runs the same routine on a batch of one."""
        return self._evaluate(items)

    def _evaluate(self, items: Sequence[ItemT]) -> list[float]:
        """The one pricing path behind :meth:`latency` and
        :meth:`evaluate_batch`.

        Makespans are cached as plain floats under ``("makespan",
        expected, injections)``, so every entry spills to a persistent
        tier.  On ``engine="auto"`` the misses run on the shared
        :class:`BatchEvaluator`, traced if a tracer is attached; on
        ``engine="reference"`` or a net outside the compiled subset each
        miss runs :meth:`_simulate`.
        """
        tokens = [self._tokens(item) for item in items]

        def compute(misses: list[int]) -> list[float]:
            evaluator = self._batch_engine() if self.engine == "auto" else None
            if evaluator is None:
                return [self._simulate(*tokens[i], self.tracer).makespan() for i in misses]
            results = evaluator.evaluate([tokens[i][0] for i in misses], tracer=self.tracer)
            for i, res in zip(misses, results):
                done, expected = res.counts.get(self.sink, 0), tokens[i][1]
                if done != expected:
                    # A genuinely stuck item raises the canonical
                    # completed-n/m error (with the marking) here.
                    self._simulate(*tokens[i], None)
                    raise SimulationError(
                        f"net {self.net.name!r}: batch item {i} completed "
                        f"{done}/{expected} tokens, but it completes when run alone"
                    )
            return [res.makespan for res in results]

        if self.cache is None:
            makespans = compute(list(range(len(items))))
        else:
            features = [
                ("makespan", n, [(inj.place, inj.payload, inj.at) for inj in injs])
                for injs, n in tokens
            ]
            makespans = self.cache.get_many(self._namespace(), features, compute)
        return [m + self.epilogue for m in makespans]

    def describe(self) -> str:
        n_places = len(self.net.places)
        n_trans = len(self.net.transitions)
        return (
            f"petri-net performance interface for {self.accelerator} "
            f"({n_places} places, {n_trans} transitions)"
        )
