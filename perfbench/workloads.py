"""The four workloads: set-up, one timed op, and the output of each op.

Each workload is a closed loop driven by one caller in one process: op
``i + 1`` starts only after op ``i`` returned. Ops call public entry
points only (``repro.api`` and the service ``Client``). ``op(i)``
returns the op's latency — its segments timed and scaled by the
workload's :class:`~calibration.ScaledClock` — and the digest of its
full output; hashing and re-encoding happen outside the timed
segments and outside any traced span.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Dict, List, Tuple

import calibration
import inputs
import repro.api as api
from checks import OutputCheck, canonical, digest
from repro.core import orchestrator
from repro.core.report import render_report
from repro.coverage import runtime as coverage
from repro.store.fingerprint import config_fingerprint
from repro.store.index import CampaignStore
from repro.store.serialize import encode_check_result, encode_result

#: Status poll interval while a service job runs.
SERVICE_POLL_S = 0.005
SERVICE_JOB_TIMEOUT_S = 120.0


class RunTally:
    """Counts the trace packets of the simulated runs in this process.

    One wrapper call per ``Orchestrator.run`` — negligible next to a
    run — so the untraced loop can report packets for workloads whose
    runs happen inside library calls (fuzz candidates, suite checks).
    """

    def __init__(self) -> None:
        self.trace_pkts = 0
        original = orchestrator.Orchestrator.__dict__["run"]

        def run(orch):
            result = original(orch)
            self.trace_pkts += len(result.trace)
            return result

        run.__wrapped__ = original
        orchestrator.Orchestrator.run = run


def _trace_records(result_bytes: bytes) -> int:
    doc = json.loads(result_bytes.decode("utf-8"))
    return len(doc["body"]["data"]["result"]["trace"]["records"])


class Workload:
    """Shared tallies; subclasses implement ``prepare`` and ``op``."""

    name = ""
    #: Ops whose inputs rotate through a fixed set of classes (NIC pair,
    #: verb, stored result). A timed run ends only after a whole number
    #: of cycles, so every run holds each class equally often.
    cycle = 1

    def __init__(self, seed: int, workdir: str, check: OutputCheck,
                 tally: RunTally, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.check = check
        self.tally = tally
        self.tracer = tracer
        #: Trace packets and test results handed back to the caller.
        self.pkts = 0
        self.runs = 0
        #: Named scaled sub-op latencies, ``key -> [seconds]``.
        self.samples: Dict[str, List[float]] = {}
        #: Started by the op loop, right before op 0.
        self.clock: calibration.ScaledClock = None

    @contextlib.contextmanager
    def quiet(self):
        """Suspend span recording around the benchmark's own work."""
        if self.tracer is None or not self.tracer.on:
            yield
            return
        self.tracer.on = False
        try:
            yield
        finally:
            self.tracer.on = True

    def sample(self, key: str, seconds: float) -> float:
        self.samples.setdefault(key, []).append(seconds)
        return seconds

    def prepare(self) -> None:
        """Untimed set-up: fill caches, stores and daemons the ops need."""

    def op(self, index: int) -> Tuple[float, str]:
        raise NotImplementedError

    def counts(self) -> Dict[str, float]:
        """Exact end-of-run counts the layers do not see themselves."""
        return {}

    def close(self) -> None:
        pass


class Bulk(Workload):
    """``repro.api.run_test`` on long seeded data-plane configs."""

    name = "bulk"
    cycle = len(inputs.NIC_PAIRS) * len(inputs.VERBS)

    def prepare(self) -> None:
        api.run_test(inputs.warmup_config())

    def op(self, index: int) -> Tuple[float, str]:
        config = inputs.bulk_config(self.seed, index)
        self.clock.start()
        result = api.run_test(config)
        elapsed = self.clock.lap()
        with self.quiet():
            out = digest([canonical(encode_result(result)), render_report(result)])
        self.pkts += len(result.trace)
        self.runs += 1
        return elapsed, out


class Campaign(Workload):
    """Fuzz campaigns for every target on one NIC, then that NIC's suite."""

    name = "campaign"
    cycle = len(inputs.CAMPAIGN_NICS)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.candidates = 0
        self.checks = 0
        self.journal_bytes = 0
        self.store_entries = 0
        self.campaign_dirs = 0

    def prepare(self) -> None:
        api.run_suite("cx5", checks=["gbn-logic"])
        coverage.enable()

    def _campaign_dir(self) -> str:
        self.campaign_dirs += 1
        return os.path.join(self.workdir, f"campaign-{self.campaign_dirs}")

    def op(self, index: int) -> Tuple[float, str]:
        nic, fuzz_seeds = inputs.campaign_op(self.seed, index)
        dirs = [self._campaign_dir() for _ in fuzz_seeds]
        pkts_before = self.tally.trace_pkts
        self.clock.start()
        outcomes, fuzz_s = [], 0.0
        for target, fuzz_seed, path in zip(inputs.FUZZ_TARGETS, fuzz_seeds, dirs):
            outcomes.append(api.execute_jobspec(
                api.JobSpec.for_fuzz(target=target, nic=nic, seed=fuzz_seed,
                                     iterations=inputs.FUZZ_ITERATIONS[target],
                                     batch=inputs.FUZZ_BATCH),
                campaign_dir=path))
            fuzz_s += self.clock.lap()
        card = api.run_suite(nic)
        suite_s = self.clock.lap()
        with self.quiet():
            parts = []
            for outcome in outcomes:
                parts += [outcome.report, canonical(outcome.data)]
            parts += [card.render(),
                      canonical([encode_check_result(c) for c in card.results])]
            out = digest(parts)
            for path in dirs:
                self.journal_bytes += os.path.getsize(os.path.join(path, "journal.jsonl"))
                self.store_entries += len(CampaignStore(os.path.join(path, "store")))
        candidates = sum(o.value.iterations_run for o in outcomes)
        self.candidates += candidates
        self.checks += len(card.results)
        self.pkts += self.tally.trace_pkts - pkts_before
        self.runs += candidates + len(card.results)
        return self.sample("fuzz", fuzz_s) + self.sample("suite", suite_s), out

    def counts(self) -> Dict[str, float]:
        session = coverage.active()
        return {"coverage.points": len(session.total_snapshot()) if session else 0,
                "store.entries": self.store_entries,
                "store.journal_bytes": self.journal_bytes}

    def close(self) -> None:
        coverage.disable()


class Replay(Workload):
    """Store replays through ``run_test(config, store=warm)`` and ``load_result``."""

    name = "replay"
    cycle = inputs.REPLAY_RESULTS

    def prepare(self) -> None:
        self.store = CampaignStore(os.path.join(self.workdir, "replay-store"))
        self.configs = inputs.replay_configs(self.seed)
        self.paths: List[str] = []
        self.stored: List[bytes] = []
        for k, config in enumerate(self.configs):
            result = api.run_test(config, store=self.store)
            path = os.path.join(self.workdir, f"result-{k}.json")
            api.save_result(result, path)
            self.paths.append(path)
            fp = config_fingerprint(config, kind="result")
            self.stored.append(canonical(self.store.get(fp)))

    def op(self, index: int) -> Tuple[float, str]:
        k = index % len(self.configs)
        self.clock.start()
        replayed = api.run_test(self.configs[k], store=self.store)
        replay_s = self.sample("replay", self.clock.lap())
        loaded = api.load_result(self.paths[k])
        load_s = self.sample("load", self.clock.lap())
        with self.quiet():
            replayed_doc = canonical(encode_result(replayed))
            loaded_doc = canonical(encode_result(loaded))
        self.check.identity(index, replayed_doc == self.stored[k],
                            "replayed result re-encodes to the stored document")
        self.check.identity(index, loaded_doc == self.stored[k],
                            "loaded result re-encodes to the stored document")
        self.pkts += len(replayed.trace) + len(loaded.trace)
        self.runs += 2
        return replay_s + load_s, digest([replayed_doc, loaded_doc])

    def counts(self) -> Dict[str, float]:
        return {"store.entries": len(self.store)}


class Service(Workload):
    """A loopback daemon; each op is a fresh job then a resubmission."""

    name = "service"

    def prepare(self) -> None:
        self.daemon = api.CampaignDaemon(os.path.join(self.workdir, "service"))
        self.daemon.start()
        self.client = api.Client(self.daemon.url, timeout_s=SERVICE_JOB_TIMEOUT_S)
        self.client.health()
        self.specs: List = []
        self.fresh: List[bytes] = []
        self._job(api.JobSpec.for_run(inputs.warmup_config()))

    def _job(self, spec) -> bytes:
        job_id = self.client.submit(spec)["id"]
        status = self.client.wait(job_id, timeout_s=SERVICE_JOB_TIMEOUT_S,
                                  poll_interval_s=SERVICE_POLL_S)
        if status["state"] != "done":
            raise RuntimeError(f"job {job_id} ended {status['state']}: "
                               f"{status.get('error')}")
        return self.client.results_bytes(job_id)

    def op(self, index: int) -> Tuple[float, str]:
        if index == len(self.specs):
            self.specs.append(api.JobSpec.for_run(inputs.service_config(self.seed, index)))
        earlier = inputs.resubmit_index(self.seed, index)
        self.clock.start()
        fresh = self._job(self.specs[index])
        job_s = self.sample("job", self.clock.lap())
        again = self._job(self.specs[earlier])
        resubmit_s = self.sample("resubmit", self.clock.lap())
        if index < len(self.fresh):
            self.check.identity(index, fresh == self.fresh[index],
                                "a resubmitted spec returns the first job's bytes")
        else:
            self.fresh.append(fresh)
        self.check.identity(index, again == self.fresh[earlier],
                            "resubmitted bytes equal the fresh job's bytes")
        with self.quiet():
            self.pkts += _trace_records(fresh) + _trace_records(again)
        self.runs += 2
        return job_s + resubmit_s, digest([fresh, again])

    def health(self) -> Dict:
        return self.client.health()

    def counts(self) -> Dict[str, float]:
        journal = os.path.join(self.daemon.state_dir, "queue.jsonl")
        return {"store.entries": len(CampaignStore(self.daemon.store_root)),
                "store.journal_bytes": os.path.getsize(journal)
                if os.path.exists(journal) else 0}

    def close(self) -> None:
        daemon = getattr(self, "daemon", None)
        if daemon is not None:
            daemon.stop()
        # Spawning job processes started multiprocessing's resource
        # tracker; reap it too, so no process outlives the benchmark.
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()


WORKLOADS = {cls.name: cls for cls in (Bulk, Campaign, Replay, Service)}


def make(name: str, seed: int, workdir: str, tracer=None) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, workdir, OutputCheck(name, seed), RunTally(), tracer)
