"""Genetic test-case generation (Algorithm 1).

The fuzzer maintains a pool Γ of traffic configurations. Each round it
picks a random member, mutates it, runs Lumina with the mutated config,
scores the results, and keeps high-scoring configs (score ≥ pool
median) — low-scoring ones survive only with probability *p*. The loop
stops when an anomaly crosses the threshold or the iteration budget is
exhausted (``stop_on_first`` controls whether the first finding ends
the search, as in the paper's pseudocode).

Everything is deterministic given the fuzzer seed: per-iteration run
seeds derive from it, so any finding replays exactly.

Campaign execution is *batched*: each generation draws a batch of K
candidates from the current pool snapshot (consuming the fuzzer RNG
candidate-by-candidate), runs and scores all K through one
:meth:`repro.exec.ParallelRunner.map_batch` call — in-process, or
fanned out over its process pool — and only
then applies median selection sequentially in candidate order. All RNG
consumption lives in the sequential phases, so for a fixed
``batch_size`` the report is byte-identical for **any** worker count;
``batch_size=1`` degenerates to the paper's strictly serial schedule.

**Coverage-guided mode** (FP4/P4Testgen-style structural feedback)
activates when a coverage session is live (override per-run with
``coverage_fitness``). Selection then works on ``score.fitness`` —
analyzer total plus a :func:`~.score.novelty_score` bonus computed
against the cumulative campaign map, folded per candidate *in
candidate order* so the math is worker-count independent — and any
candidate that reaches a never-before-seen coverage point is admitted
to the pool regardless of its analyzer score. The pool is kept lean by
dominance minimization (an entry whose coverage points are a subset of
a higher-ranked survivor's is evicted; pool size is bounded), and
repeated rediscoveries of one bug collapse into a single
:class:`FuzzFinding` whose ``count`` grows — findings are keyed on
``(fingerprint of the clamped candidate traffic, coverage signature)``.
The blind path (``coverage_fitness=False``, or no session) consumes
the RNG exactly as before this mode existed, so legacy schedules and
journals reproduce byte-identically.
"""

from __future__ import annotations

import os
from bisect import insort
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # avoid a runtime core -> exec/store import cycle
    from ...exec.runner import ParallelRunner
    from ...store.index import CampaignStore

from ...coverage import runtime as coverage
from ...coverage.map import CoverageMap
from ...sim.rng import SimRandom
from ...telemetry import runtime as telemetry
from ..config import TestConfig, TrafficConfig
from ..orchestrator import run_test
from ..results import TestResult
from .mutate import mutate
from .score import Score, ScoreWeights, novelty_score

__all__ = ["FuzzFinding", "FuzzReport", "LuminaFuzzer", "PoolEntry"]


@dataclass
class PoolEntry:
    """One member of the pool Γ: the config *with* its selection score.

    The score and config travel together (the historical parallel-list
    layout lost the pairing, making eviction impossible); ``points`` is
    the entry's coverage signature — the sorted ``(domain, point)``
    keys its run reached — used by dominance minimization. Empty in
    blind mode and for the initial pool.
    """

    config: TrafficConfig
    score: float
    points: Tuple[Tuple[str, str], ...] = ()


@dataclass
class FuzzFinding:
    """One anomalous configuration discovered by the fuzzer."""

    iteration: int
    config: TestConfig
    score: Score
    #: How many times the campaign rediscovered this same bug (same
    #: dedup key); 1 outside coverage-guided mode.
    count: int = 1

    def summary(self) -> str:
        t = self.config.traffic
        times = f" x{self.count}" if self.count > 1 else ""
        return (f"iter {self.iteration}{times}: "
                f"score={self.score.total:.1f} "
                f"verb={t.rdma_verb} conns={t.num_connections} "
                f"events={len(t.data_pkt_events)} -> "
                + "; ".join(self.score.anomalies[:2]))


@dataclass
class FuzzReport:
    iterations_run: int = 0
    invalid_runs: int = 0
    findings: List[FuzzFinding] = field(default_factory=list)
    pool_scores: List[float] = field(default_factory=list)
    #: Per-generation coverage growth rows ({generation, new-points,
    #: total-points}); empty when coverage was disabled.
    coverage_growth: List[dict] = field(default_factory=list)
    #: Cumulative campaign coverage snapshot; None when disabled.
    coverage: Optional[List[list]] = None
    #: Anomalous runs collapsed into an existing finding (guided mode).
    rediscoveries: int = 0
    #: Pool entries removed by dominance minimization (guided mode).
    pool_evictions: int = 0

    @property
    def found_anomaly(self) -> bool:
        return bool(self.findings)

    @property
    def best(self) -> Optional[FuzzFinding]:
        if not self.findings:
            return None
        return max(self.findings, key=lambda f: f.score.total)


class LuminaFuzzer:
    """Algorithm 1: genetic-based fuzzing over traffic configurations."""

    def __init__(self, base_config: TestConfig, seed: int = 1,
                 weights: ScoreWeights = ScoreWeights(),
                 keep_probability: float = 0.25,
                 anomaly_threshold: float = 3.0,
                 initial_pool: Optional[List[TrafficConfig]] = None,
                 run_fn: Callable[[TestConfig], TestResult] = run_test,
                 max_pool_size: int = 64,
                 novelty_first_bonus: float = 2.0,
                 novelty_rare_bonus: float = 1.0):
        self.base_config = base_config
        self.seed = seed
        self.rng = SimRandom(seed, "fuzzer")
        self.weights = weights
        self.keep_probability = keep_probability
        self.anomaly_threshold = anomaly_threshold
        self.max_pool_size = max(1, max_pool_size)
        self.novelty_first_bonus = novelty_first_bonus
        self.novelty_rare_bonus = novelty_rare_bonus
        self._run = run_fn
        # Step 1: initialise the candidate pool with valid configs.
        configs = list(initial_pool or [])
        if not configs:
            configs = self._default_pool()
        self._pool: List[PoolEntry] = [PoolEntry(config=c, score=0.0)
                                       for c in configs]
        # Selection needs the pool *median*: keep the scores sorted
        # (insort is O(n) worst case but tiny next to a simulation run)
        # so each lookup is O(1) instead of statistics.median's sort.
        # Derived from self._pool — rebuilt on load/minimize.
        self._pool_scores: List[float] = sorted(e.score for e in self._pool)
        self._next_seed = seed * 1_000_003 + 7
        # Cumulative campaign coverage; fed in candidate order from the
        # compact scores, so it grows identically for any worker count.
        self._coverage = CoverageMap()
        # Guided-mode finding dedup: key -> the FuzzFinding it owns.
        # Rebuilt from the journaled report on resume.
        self._findings_by_key: Dict[Tuple, FuzzFinding] = {}

    @property
    def pool(self) -> List[TrafficConfig]:
        """Pool Γ as bare configs (read-only view of the entries)."""
        return [e.config for e in self._pool]

    def _default_pool(self) -> List[TrafficConfig]:
        base = self.base_config.traffic
        pool = [base]
        for _ in range(3):
            pool.append(mutate(base, self.rng, rounds=2))
        return pool

    def _config_for(self, traffic: TrafficConfig) -> TestConfig:
        self._next_seed += 1
        return replace(self.base_config, traffic=traffic, seed=self._next_seed)

    def _pool_median(self) -> float:
        """Median of the (sorted) pool scores; 0.0 for an empty pool."""
        scores = self._pool_scores
        n = len(scores)
        if not n:
            return 0.0
        mid = n // 2
        if n % 2:
            return scores[mid]
        return (scores[mid - 1] + scores[mid]) / 2

    def _admit(self, candidate: TrafficConfig, total: float,
               points: Tuple[Tuple[str, str], ...] = ()) -> None:
        self._pool.append(PoolEntry(config=candidate, score=total,
                                    points=points))
        insort(self._pool_scores, total)

    def _minimize_pool(self) -> int:
        """Corpus minimization: evict dominated entries, bound the pool.

        Entries are ranked by ``(-score, insertion order)``. Walking
        down the ranking, an entry is evicted when its (non-empty)
        coverage point set is a subset of some already-kept survivor's
        — it explores nothing the better entry does not — or when the
        survivor quota ``max_pool_size`` is full. Entries with *no*
        coverage signature (initial pool, blind admissions) are exempt
        from dominance (the empty set is a subset of everything) but
        still count against the size bound. Purely a function of pool
        state, so it is deterministic across workers and resume.
        Returns the number of evictions.
        """
        if len(self._pool) <= self.max_pool_size:
            return 0
        ranked = sorted(range(len(self._pool)),
                        key=lambda i: (-self._pool[i].score, i))
        survivors: List[int] = []
        survivor_points: List[frozenset] = []
        for idx in ranked:
            if len(survivors) >= self.max_pool_size:
                break
            pts = frozenset(self._pool[idx].points)
            if pts and any(pts <= sp for sp in survivor_points):
                continue
            survivors.append(idx)
            survivor_points.append(pts)
        evicted = len(self._pool) - len(survivors)
        # Survivors keep their relative insertion order so later
        # rankings (and RNG-driven pool draws) stay stable.
        self._pool = [self._pool[i] for i in sorted(survivors)]
        self._pool_scores = sorted(e.score for e in self._pool)
        return evicted

    def _finding_key(self, traffic: TrafficConfig,
                     rows: Optional[Sequence]) -> Tuple:
        """Dedup key: (clamped-config fingerprint, coverage signature).

        Two anomalous runs are "the same bug" when the mutated traffic
        config fingerprints identically *and* the run reached the same
        coverage points (hit counts and times excluded — a retry loop
        spinning twice is still the same bug).
        """
        from ...store.fingerprint import fingerprint

        config_fp = fingerprint("fuzz-finding-config", {"traffic": traffic})
        signature = tuple(sorted((row[0], row[1]) for row in rows or ()))
        return (config_fp, signature)

    # ------------------------------------------------------------------
    # Campaign checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """Everything a later process needs to continue this fuzzer.

        Restoring this state with :meth:`load_state` reproduces the
        remaining iterations exactly — RNG stream position, the
        per-iteration seed counter, the evolved pool (with per-entry
        score/coverage pairing) are the only mutable state the loop
        reads.

        Schema: ``"pool-entries"`` (one ``{score, points}`` dict per
        pool config, same order as ``"pool"``) pairs each config with
        its score; ``"pool-scores"`` (the sorted score list) is still
        written so the journal format stays unchanged, but
        :meth:`load_state` rebuilds it from the entries and rejects a
        checkpoint without them. ``"coverage-map"`` is emitted
        whenever a coverage session is active — even while empty —
        so a coverage-enabled campaign that has hit zero points is
        distinguishable from a coverage-off one on resume.
        """
        state = {
            "rng": self.rng.getstate(),
            "next-seed": self._next_seed,
            "pool": [e.config.to_dict() for e in self._pool],
            "pool-scores": list(self._pool_scores),
            "pool-entries": [
                {"score": e.score, "points": [list(p) for p in e.points]}
                for e in self._pool
            ],
        }
        if coverage.active() is not None or len(self._coverage):
            state["coverage-map"] = self._coverage.snapshot()
        return state

    def load_state(self, state: Dict) -> None:
        """Restore a :meth:`state_dict` checkpoint (journal resume).

        Raises ``ValueError`` on a v1 checkpoint: without
        ``"pool-entries"`` the config/score pairing is unrecoverable.
        """
        entries = state.get("pool-entries")
        if entries is None:
            raise ValueError(
                "fuzz checkpoint has no 'pool-entries' (a v1 journal, "
                "which is no longer supported); restart the campaign "
                "in a fresh directory")
        self.rng.setstate(state["rng"])
        self._next_seed = state["next-seed"]
        configs = [TrafficConfig.from_dict(t) for t in state["pool"]]
        self._pool = [
            PoolEntry(config=c, score=e["score"],
                      points=tuple((d, p) for d, p in e["points"]))
            for c, e in zip(configs, entries)
        ]
        self._pool_scores = sorted(e.score for e in self._pool)
        self._coverage = CoverageMap.from_snapshot(
            state.get("coverage-map", []))

    def _campaign_fingerprint(self, batch_size: int,
                              guided: bool = False) -> str:
        """Address of this campaign: base config + every fuzzing knob.

        ``iterations`` is deliberately excluded — a finished campaign
        may be resumed with a larger budget and simply continues.
        """
        from ...store.fingerprint import config_fingerprint

        extra = {
            "fuzzer-seed": self.seed,
            "weights": self.weights,
            "keep-probability": self.keep_probability,
            "anomaly-threshold": self.anomaly_threshold,
            "batch-size": batch_size,
            "initial-pool": [e.config.to_dict() for e in self._pool],
        }
        if coverage.active() is not None:
            extra["coverage"] = True
        if guided:
            # Guided campaigns evolve a different schedule, so they
            # never share a journal with a blind campaign; the novelty
            # knobs are part of the address for the same reason the
            # weights are.
            extra["coverage-fitness"] = {
                "first-hit-bonus": self.novelty_first_bonus,
                "rare-hit-bonus": self.novelty_rare_bonus,
                "max-pool-size": self.max_pool_size,
            }
        return config_fingerprint(self.base_config, kind="fuzz-campaign",
                                  extra=extra)

    # ------------------------------------------------------------------
    # Batch phases
    # ------------------------------------------------------------------
    def _generate_batch(self, k: int) -> List[Tuple[TrafficConfig, TestConfig]]:
        """Step 2, batched: draw K candidates from the pool snapshot.

        Consumes the fuzzer RNG candidate-by-candidate — entirely
        sequential, so the schedule is independent of how the batch is
        later executed.
        """
        batch = []
        for _ in range(k):
            # choice() consumes one draw keyed on sequence length, so
            # drawing an entry costs exactly what drawing a bare config
            # did — the legacy blind schedules are untouched.
            gamma = self.rng.choice(self._pool).config
            candidate = mutate(gamma, self.rng,
                               rounds=self.rng.choice([1, 1, 2]))
            batch.append((candidate, self._config_for(candidate)))
        return batch

    def _score_batch(self, batch: Sequence[Tuple[TrafficConfig, TestConfig]],
                     runner: "ParallelRunner", first_iteration: int,
                     store: Optional["CampaignStore"] = None,
                     ) -> List[Optional[Score]]:
        """Step 3, batched: run + score every candidate.

        One :meth:`~repro.exec.ParallelRunner.map_batch` call: with a
        ``store``, cached scores replay without touching the testbed
        and only the misses run (and are written back); pool workers
        ship back only the compact :class:`Score`, never the trace. A
        candidate whose run raises maps to ``None`` and is later
        counted as an invalid run, for any worker count.
        """
        from ...exec import TaskCodec
        from ...store.serialize import decode_score, encode_score

        fps = None
        if store is not None:
            from ...store.fingerprint import config_fingerprint

            extra: Dict = {"weights": self.weights}
            if coverage.active() is not None:
                extra["coverage"] = True
            fps = [config_fingerprint(config, kind="score", extra=extra)
                   for _, config in batch]
        payloads: List[Dict] = []
        for offset, (_, config) in enumerate(batch):
            payload = {"config": config, "weights": self.weights,
                       "iteration": first_iteration + offset}
            if self._run is not run_test:
                payload["run_fn"] = self._run
            payloads.append(payload)
        codec = TaskCodec("score", encode_score, decode_score)
        with telemetry.current().wall_span(
                "fuzz.batch", pid="fuzzer", category="fuzz",
                first_iteration=first_iteration, size=len(batch)) as span:
            outcomes = runner.map_batch(payloads, codec, store, fps)
            scores = [o.value if o.ok else None for o in outcomes]
            span.set(cached=sum(o.cached for o in outcomes),
                     failed=scores.count(None))
        return scores

    # ------------------------------------------------------------------
    def run(self, iterations: int = 20, stop_on_first: bool = False,
            workers: int = 1, batch_size: int = 1,
            store: Optional["CampaignStore"] = None,
            campaign_dir: Optional[str] = None,
            coverage_fitness: Optional[bool] = None) -> FuzzReport:
        """Run the fuzzing loop for at most ``iterations`` rounds.

        ``batch_size`` fixes the generation schedule (how many
        candidates are drawn per pool snapshot); ``workers`` only
        decides how each batch is executed. Reports are therefore
        byte-identical across worker counts for a given
        ``batch_size``, and ``batch_size=1`` (the default) reproduces
        the historical strictly-serial schedule exactly.

        One runner serves the whole campaign, so its pool is reused
        across generations. Pool execution requires the default
        ``run_test`` — a custom ``run_fn`` keeps scoring in-process.

        ``store`` dedups identical candidate runs across (and within)
        campaigns. ``campaign_dir`` makes the campaign *persistent*:
        a store under ``<dir>/store`` plus a generation journal under
        ``<dir>/journal.jsonl``. A killed campaign re-invoked with the
        same directory resumes after the last complete generation and
        its final report is byte-identical to an uninterrupted run's
        (the journal carries the full fuzzer state). The environment
        knob ``REPRO_CAMPAIGN_CRASH_AFTER_GEN=<k>`` kills the process
        (exit 3) right after journaling generation ``k`` — a
        deterministic stand-in for mid-campaign crashes, used by tests
        and the CI resume smoke; ``k=0`` crashes right after the
        ``begin`` record, before any generation runs.

        ``coverage_fitness`` selects coverage-guided selection (see the
        module docstring): ``None`` (default) turns it on exactly when
        a coverage session is active; ``False`` forces the blind GA
        even under a session. ``True`` needs a live session to feed
        back: the job path (:func:`repro.service.execute_jobspec`, shared
        by the CLI, ``repro.api`` and the job process) opens an
        in-memory one when none is active.
        """
        batch_size = max(1, batch_size)
        cov_on = coverage.active() is not None
        if coverage_fitness is None:
            guided = cov_on
        else:
            guided = bool(coverage_fitness) and cov_on
        journal = None
        if campaign_dir is not None:
            from ...store import CampaignJournal, CampaignStore

            if store is None:
                store = CampaignStore(os.path.join(campaign_dir, "store"))
            journal = CampaignJournal(
                os.path.join(campaign_dir, "journal.jsonl"))
        report = FuzzReport()
        completed = 0
        stopped = False
        generation = 0
        crash_after: Optional[int] = None
        if journal is not None:
            from ...store.index import StoreError
            from ...store.serialize import decode_fuzz_report

            campaign_fp = self._campaign_fingerprint(batch_size, guided)
            begin = journal.last("begin")
            if begin is None:
                journal.append({"type": "begin",
                                "fingerprint": campaign_fp})
            elif begin["fingerprint"] != campaign_fp:
                raise StoreError(
                    f"campaign dir {campaign_dir!r} belongs to a different "
                    "campaign (base config, seed or fuzzing knobs differ)")
            checkpoint = journal.last("generation")
            if checkpoint is not None:
                self.load_state(checkpoint["state"])
                report = decode_fuzz_report(checkpoint["report"])
                completed = checkpoint["completed"]
                stopped = checkpoint["stopped"]
                generation = checkpoint["generation"]
            env = os.environ.get("REPRO_CAMPAIGN_CRASH_AFTER_GEN")
            if env:
                crash_after = int(env)
                if crash_after <= generation:
                    # Every journaled generation ≤ the crash point is
                    # already on disk; k=0 in particular dies right
                    # after the begin record, before generation 1.
                    raise SystemExit(3)
        if guided:
            # Resume (or a re-entered run) must dedup against every
            # finding already journaled.
            self._findings_by_key = {
                self._finding_key(f.config.traffic, f.score.coverage): f
                for f in report.findings
            }
        tel = telemetry.current()
        m_iters = tel.counter("fuzz_iterations")
        m_invalid = tel.counter("fuzz_invalid_runs")
        m_findings = tel.counter("fuzz_findings")
        h_score = tel.histogram("fuzz_score",
                                buckets=(0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0))
        from ...exec import ParallelRunner
        from ...exec.tasks import score_config_task

        runner = ParallelRunner(score_config_task,
                                workers=workers if self._run is run_test else 1)
        try:
            while completed < iterations and not stopped:
                batch = self._generate_batch(
                    min(batch_size, iterations - completed))
                scores = self._score_batch(batch, runner, completed + 1,
                                           store)
                before_points = len(self._coverage)
                if cov_on and not guided:
                    # Blind mode folds the whole batch before selection
                    # — the historical order, kept bit-exact so legacy
                    # schedules reproduce.
                    for score in scores:
                        if score is not None and score.coverage:
                            self._coverage.merge_snapshot(score.coverage)
                # Step 4: selection — sequential, in candidate order, so
                # every RNG draw happens on the parent's single stream.
                for offset, ((candidate, _), score) in enumerate(
                        zip(batch, scores)):
                    iteration = completed + offset + 1
                    report.iterations_run = iteration
                    m_iters.inc()
                    if score is None or not score.valid:
                        report.invalid_runs += 1
                        m_invalid.inc()
                        continue
                    rows = score.coverage if guided else None
                    first_hits = 0
                    if guided:
                        # Novelty first, fold second: each candidate is
                        # judged against everything folded before it —
                        # earlier batch members included — in candidate
                        # order, independent of the worker count.
                        score.novelty, first_hits = novelty_score(
                            rows, self._coverage,
                            self.novelty_first_bonus,
                            self.novelty_rare_bonus)
                        if rows:
                            self._coverage.merge_snapshot(rows)
                    h_score.observe(score.total)
                    current_median = self._pool_median()
                    fitness = score.fitness if guided else score.total
                    # A first-hit candidate is admitted unconditionally
                    # (it reached somewhere the campaign never has);
                    # the keep-probability draw short-circuits exactly
                    # as in the blind GA, which in that mode leaves the
                    # RNG stream untouched relative to the legacy code.
                    if fitness >= current_median or first_hits > 0 or \
                            self.rng.random() < self.keep_probability:
                        points = (tuple(sorted((r[0], r[1]) for r in rows))
                                  if guided and rows else ())
                        self._admit(candidate, fitness, points)
                    report.pool_scores.append(fitness)
                    if score.total >= self.anomaly_threshold:
                        if guided:
                            key = self._finding_key(candidate, rows)
                            known = self._findings_by_key.get(key)
                            if known is not None:
                                # Same reduced config, same coverage
                                # signature: a rediscovery, not a new
                                # finding.
                                known.count += 1
                                report.rediscoveries += 1
                                continue
                        m_findings.inc()
                        finding = FuzzFinding(
                            iteration=iteration,
                            config=self._config_for(candidate),
                            score=score,
                        )
                        if guided:
                            self._findings_by_key[key] = finding
                        report.findings.append(finding)
                        if stop_on_first:
                            stopped = True
                            break
                if guided:
                    report.pool_evictions += self._minimize_pool()
                if cov_on:
                    report.coverage_growth.append({
                        "generation": len(report.coverage_growth) + 1,
                        "new-points": len(self._coverage) - before_points,
                        "total-points": len(self._coverage),
                    })
                    report.coverage = self._coverage.snapshot()
                completed += len(batch)
                if journal is not None:
                    generation += 1
                    from ...store.serialize import encode_fuzz_report

                    journal.append({
                        "type": "generation",
                        "generation": generation,
                        "completed": completed,
                        "stopped": stopped,
                        "state": self.state_dict(),
                        "report": encode_fuzz_report(report),
                    })
                    if crash_after is not None and generation >= crash_after:
                        raise SystemExit(3)
        finally:
            runner.close()
        return report
