"""The three benchmark workloads: inputs, set-up, the timed loop, checks.

Every workload is a closed loop: a client sends its next request only after
the previous one returned.  Inputs come from the workload seed alone and are
generated before timing starts; :meth:`Workload.digest` fingerprints them so
runs on two commits can be shown to share inputs.

Each workload has two modes.  The timed mode (``trace=False``) runs with no
shims and yields the end-to-end figures.  The traced mode runs each unit of
work twice, untraced and then under :mod:`layers` shims, checks that both
give the same rankings, and yields the per-layer figures plus the tracing
overhead on the workload's main metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import itertools
import json
import math
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
from spans import Recorder
from repro import Charles, CharlesConfig
from repro.cacheserver.client import server_stats
from repro.core.config import ServingConfig
from repro.evaluation.metrics import rule_recovery
from repro.obs.metrics import get_registry, parse_prometheus
from repro.relational.csv_io import read_csv_text, write_csv_text
from repro.serving import ServingServer
from repro.timeline import EngineSession, TimelineStore
from repro.workloads import employee_pair, streaming_employee_timeline
from repro.workloads.employee import bonus_policy

TARGET = "bonus"
ROOT = Path(__file__).resolve().parent.parent


class Tally:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, note: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(note)
        return ok


def ranking_bytes(rankings) -> bytes:
    """Canonical bytes of rankings (scores by ``repr``, so exact)."""
    return json.dumps(rankings, sort_keys=True).encode("utf-8")


def pair_ranking(result) -> list:
    return [[scored.summary.describe(), float(scored.score)] for scored in result.summaries]


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered) - 1e-9))
    return ordered[rank - 1]


def beyond(values, fraction: float) -> int:
    """How many samples lie above the nearest-rank percentile."""
    cut = percentile(values, fraction)
    return sum(1 for value in values if value > cut)


def balanced(samples) -> float:
    """Mean over inputs of each input's median (``samples``: input -> seconds).

    A run that repeats some inputs more often than others then weighs every
    input once, so the figure does not move with how many units fit in the
    window.
    """
    return statistics.mean(statistics.median(values) for values in samples.values())


class Window:
    """The measuring window: start a unit of work only if it should end in time.

    The first ``minimum`` units always run, so a run covers its whole input
    pool once however slow the machine is.  After that a unit starts only
    while the elapsed time plus the last unit's duration still fits in
    ``seconds``, so a run ends close to its window instead of overshooting
    it by a whole unit.
    """

    def __init__(self, seconds: float, minimum: int = 1) -> None:
        self.seconds = seconds
        self.minimum = minimum
        self.started = time.perf_counter()
        self._units = 0
        self._unit_began = None

    def next_unit(self) -> bool:
        now = time.perf_counter()
        if self._units >= self.minimum:
            last = now - self._unit_began
            if now - self.started + last > self.seconds:
                return False
        self._units += 1
        self._unit_began = now
        return True


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def inputs(self):
        raise NotImplementedError

    def digest(self, inputs) -> str:
        raise NotImplementedError

    def start(self, inputs):
        """Start the services the loop talks to; returns a handle to stop."""
        return None

    def stop(self, services) -> None:
        pass


# -- pair-cold ---------------------------------------------------------------------------


class PairCold(Workload):
    """Cold, serial, in-memory ``Charles().summarize_pair`` on 3000-row pairs."""

    name = "pair-cold"
    rows = 3000
    #: generator seeds on which the top summary recovers ``bonus_policy()``
    #: exactly.  Time differs by pair, so the pool is fixed and a run walks
    #: all of it; the workload seed fixes the order.
    pool = (17, 18, 19)

    def pair_seeds(self) -> list[int]:
        order = list(self.pool)
        random.Random(self.seed).shuffle(order)
        return order

    def inputs(self):
        return [(seed, employee_pair(self.rows, seed)) for seed in self.pair_seeds()]

    def digest(self, inputs) -> str:
        hasher = hashlib.sha256(f"{self.name}:{self.rows}".encode())
        for seed, pair in inputs:
            hasher.update(f"pair {seed}\n".encode())
            hasher.update(write_csv_text(pair.source).encode())
            hasher.update(write_csv_text(pair.target).encode())
        return hasher.hexdigest()

    @staticmethod
    def check(result, pair) -> bool:
        truth = bonus_policy().summary
        recovery = rule_recovery(result.best.summary, truth, pair.source)
        return recovery.recall == 1.0 and recovery.precision == 1.0

    def run(self, inputs, services, seconds: float, trace: bool):
        tally = Tally()
        plain, traced = [], []
        by_pair: dict[int, list[float]] = {}
        recorder = Recorder()
        stats = []
        window = Window(seconds, minimum=1 if trace else len(inputs))
        for index, (seed, pair) in enumerate(itertools.cycle(inputs)):
            if not window.next_unit():
                break
            begun = time.perf_counter()
            try:
                result = Charles().summarize_pair(pair, TARGET)
                plain.append(time.perf_counter() - begun)
                by_pair.setdefault(seed, []).append(plain[-1])
                ok = self.check(result, pair)
            except Exception as error:  # a failed request is counted, not fatal
                tally.record(False, f"pair {seed}: {error!r}")
                continue
            tally.record(ok, f"pair {seed}: top summary does not recover the policy")
            if not trace:
                continue
            shims = layers.install(recorder)
            try:
                begun = time.perf_counter()
                with recorder.request("bench.summarize", f"pair-{index}"):
                    traced_result = Charles().summarize_pair(pair, TARGET)
                traced.append(time.perf_counter() - begun)
            except Exception as error:
                tally.record(False, f"pair {seed} traced: {error!r}")
                continue
            finally:
                shims.remove()
            stats.append(traced_result.search_stats.as_dict())
            same = ranking_bytes(pair_ranking(traced_result)) == ranking_bytes(pair_ranking(result))
            tally.record(same, f"pair {seed}: traced rankings differ from untraced")
        report = {
            "summarize_p50_s": balanced(by_pair),
            "requests_per_s": 1.0 / balanced(by_pair),
            "summarize_samples": len(plain),
        }
        if trace:
            figures = layers.span_figures(recorder.spans)
            units = len(traced)
            per_layer = layers.per_unit(figures, units)
            per_layer.update(layers.search_figures(stats, units))
            per_layer["trace.overhead_frac"] = (
                statistics.median(traced) / statistics.median(plain[: len(traced)]) - 1.0
            )
            report["per_layer"] = per_layer
            report["adds_up"] = layers.adds_up(figures)
            report["recorders"] = {"pairs": recorder}
        return tally, report


# -- timeline-fleet --------------------------------------------------------------------


class Fleet:
    """Cache shards in one child process (their CPU is off our interpreter lock)."""

    def __init__(self, shards: int) -> None:
        self.shards = shards
        self._process = None
        self.urls: list[str] = []
        self.restart()

    def restart(self) -> None:
        """Stop the shards (if running) and start an empty set."""
        self.stop()
        script = Path(__file__).resolve().parent / "shards.py"
        self._process = subprocess.Popen(
            [sys.executable, str(script), str(self.shards)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=str(ROOT),
        )
        line = self._process.stdout.readline().strip()
        if not line:
            self.stop()
            raise RuntimeError("cache shard process did not report its addresses")
        self.urls = line.split(",")

    def stop(self) -> None:
        process, self._process = self._process, None
        if process is None:
            return
        process.stdin.close()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()

    def entries(self) -> int:
        """Entries held across the shards, from each shard's ``STATS``."""
        total = 0
        for url in self.urls:
            for region in server_stats(url)["regions"].values():
                total += region["entries"]
        return total

    def config(self, replication: int) -> CharlesConfig:
        return CharlesConfig(
            cache_backend="remote", cache_url=",".join(self.urls), cache_replication=replication
        )


class TimelineFleet(Workload):
    """A 4-version timeline summarised cold, then warm, against a 2-shard fabric."""

    name = "timeline-fleet"
    rows = 1500
    versions = 4
    shards = 2
    replication = 2
    #: generator seeds of the timelines.  Time differs by timeline, so the
    #: pool is fixed and a run walks all of it; the workload seed fixes the
    #: order.
    pool = (41, 42)

    def timeline_seeds(self) -> list[int]:
        order = list(self.pool)
        random.Random(self.seed).shuffle(order)
        return order

    def inputs(self):
        return [
            (seed, streaming_employee_timeline(self.rows, num_versions=self.versions, seed=seed)[0])
            for seed in self.timeline_seeds()
        ]

    def digest(self, inputs) -> str:
        hasher = hashlib.sha256(f"{self.name}:{self.rows}:{self.versions}".encode())
        for seed, store in inputs:
            hasher.update(f"timeline {seed}\n".encode())
            for version in store:
                hasher.update(f"{version.name}\n".encode())
                hasher.update(write_csv_text(version.table).encode())
        return hasher.hexdigest()

    def start(self, inputs):
        return Fleet(self.shards)

    def stop(self, services) -> None:
        services.stop()

    @staticmethod
    def one_pass(config, store, recorder=None, request=None):
        """Summarise ``store`` from a fresh session: ``(seconds, rankings, stats)``."""
        span = recorder.request("bench.pass", request) if recorder else contextlib.nullcontext()
        begun = time.perf_counter()
        with span, EngineSession(config) as session:
            result = session.summarize_timeline(store, TARGET)
        seconds = time.perf_counter() - begun
        stats = [hop.stats.as_dict() for hop in result.hops if hop.stats is not None]
        return seconds, ranking_bytes(result.rankings()), stats

    def run(self, inputs, fleet, seconds: float, trace: bool):
        tally = Tally()
        cold, warm, traced_cold = [], [], []
        cold_by, warm_by = {}, {}
        phases = {"cold": Recorder(), "warm": Recorder()}
        stats = {"cold": [], "warm": []}
        resolution = {}
        entries = 0
        window = Window(seconds, minimum=1 if trace else len(inputs))
        for index, (seed, store) in enumerate(itertools.cycle(inputs)):
            if not window.next_unit():
                break
            if index:
                fleet.restart()  # every cold pass starts from an empty fabric
            try:
                cold_s, cold_rank, _ = self.one_pass(fleet.config(self.replication), store)
            except Exception as error:
                tally.record(False, f"timeline {seed} cold: {error!r}")
                continue
            tally.record(True)
            cold.append(cold_s)
            cold_by.setdefault(seed, []).append(cold_s)
            try:
                warm_s, warm_rank, _ = self.one_pass(fleet.config(self.replication), store)
            except Exception as error:
                tally.record(False, f"timeline {seed} warm: {error!r}")
                continue
            warm.append(warm_s)
            warm_by.setdefault(seed, []).append(warm_s)
            tally.record(warm_rank == cold_rank, f"timeline {seed}: warm rankings differ from cold")
            if not trace:
                continue
            # an empty fleet again, so the traced cold pass is as cold as the untraced one
            fleet.restart()
            for phase in ("cold", "warm"):
                recorder = phases[phase]
                before = parse_prometheus(get_registry().render())
                shims = layers.install(recorder)
                try:
                    pass_s, rank, pass_stats = self.one_pass(
                        fleet.config(self.replication), store, recorder, f"{phase}-{seed}"
                    )
                except Exception as error:
                    tally.record(False, f"timeline {seed} traced {phase}: {error!r}")
                    break
                finally:
                    shims.remove()
                after = parse_prometheus(get_registry().render())
                resolution[phase] = layers.resolution_figures(before, after)
                stats[phase].extend(pass_stats)
                tally.record(rank == cold_rank, f"timeline {seed}: traced {phase} rankings differ")
                if phase == "cold":
                    traced_cold.append(pass_s)
            entries = fleet.entries()
        report = {
            "summarize_p50_s": balanced(cold_by),
            "requests_per_s": 2.0 / (balanced(cold_by) + balanced(warm_by)),
            "cold_timeline_s": balanced(cold_by),
            "warm_timeline_s": balanced(warm_by),
            "summarize_samples": len(cold),
        }
        if trace:
            units = len(traced_cold)
            per_layer = {}
            adds_up = True
            for phase, prefix in (("cold", ""), ("warm", "warm.")):
                recorder = phases[phase]
                figures = layers.span_figures(recorder.spans)
                adds_up = adds_up and layers.adds_up(figures)
                values = layers.per_unit(figures, units)
                values.update(layers.search_figures(stats[phase], units))
                values.update(layers.remote_figures(stats[phase], units))
                values.update(layers.wire_figures(recorder, units))
                values.update(resolution.get(phase, {}))
                per_layer.update({prefix + name: value for name, value in values.items()})
            per_layer["cacheserver.entries"] = entries
            per_layer["trace.overhead_frac"] = (
                statistics.median(traced_cold) / statistics.median(cold[:units]) - 1.0
            )
            report["per_layer"] = per_layer
            report["adds_up"] = adds_up
            report["recorders"] = phases
        return tally, report


# -- serve-sessions --------------------------------------------------------------------


#: small searches, so HTTP, admission, batching and CSV parsing carry weight
SERVE_CONFIG = {"max_partitions": 2, "max_condition_attributes": 2, "top_k": 5}


class ServeSessions(Workload):
    """Two tenants drive sessions through an in-process ``ServingServer``."""

    name = "serve-sessions"
    rows = 300
    versions = 4
    #: generator seeds of the shared timelines; the workload seed draws the
    #: plan of which client summarises which timeline in each round
    pool = (61, 62)
    clients = 2
    planned_rounds = 400

    def inputs(self):
        rng = random.Random(self.seed)
        pool = []
        for seed in self.pool:
            store, _ = streaming_employee_timeline(self.rows, num_versions=self.versions, seed=seed)
            pool.append(
                {
                    "seed": seed,
                    "key": store.key,
                    "csvs": [(version.name, write_csv_text(version.table)) for version in store],
                }
            )
        # each round both clients open one session.  Rounds come in blocks
        # holding every (client 0, client 1) timeline combination once, in
        # seeded order: half the rounds give both clients the same timeline
        # (twin summarize requests) however many rounds fit in the window.
        combinations = list(itertools.product(range(len(self.pool)), repeat=self.clients))
        plan = []
        while len(plan) < self.planned_rounds:
            block = list(combinations)
            rng.shuffle(block)
            plan.extend(list(combination) for combination in block)
        return {"pool": pool, "plan": plan}

    def digest(self, inputs) -> str:
        hasher = hashlib.sha256(f"{self.name}:{self.rows}:{self.versions}".encode())
        for timeline in inputs["pool"]:
            hasher.update(f"timeline {timeline['seed']} key {timeline['key']}\n".encode())
            for name, csv_text in timeline["csvs"]:
                hasher.update(f"{name}\n".encode())
                hasher.update(csv_text.encode())
        hasher.update(json.dumps(inputs["plan"]).encode())
        return hasher.hexdigest()

    def start(self, inputs):
        return ServingServer(serving=ServingConfig()).start()

    def stop(self, services) -> None:
        services.stop()

    def reference(self, inputs) -> list[list[bytes]]:
        """Rankings of a direct ``EngineSession`` run of each pool timeline's hops."""
        config = CharlesConfig(**SERVE_CONFIG)
        reference = []
        for timeline in inputs["pool"]:
            store = TimelineStore(key=timeline["key"])
            for name, csv_text in timeline["csvs"]:
                store.append(name, read_csv_text(csv_text, primary_key=timeline["key"]))
            names = store.names
            with EngineSession(config) as session:
                reference.append(
                    [
                        ranking_bytes(pair_ranking(session.summarize_pair(store.pair(a, b), TARGET)))
                        for a, b in zip(names, names[1:])
                    ]
                )
        return reference

    def drive(self, inputs, reference, server, seconds, tally, recorder=None) -> dict:
        """Rounds of sessions on both clients until ``seconds`` have passed.

        A round starts when both clients are ready, so twin sessions (same
        timeline on both clients) send their summarize requests together.
        """
        host, port = server.url.split("//", 1)[1].split(":")
        samples = {"summarize": [], "advance": [], "other": []}
        #: summarize seconds by (twin round, timeline, hop)
        classes: dict[tuple, list[float]] = {}
        leaders: list[str] = []
        stats: list[dict] = []
        lock = threading.Lock()
        state = {"stop": False, "round": 0, "current": 0}
        #: when each round began; the last mark is when the last round ended
        marks: list[float] = []
        ids = itertools.count()
        # the first block of rounds holds every timeline combination once
        window = Window(seconds, minimum=len(self.pool) ** self.clients)

        def next_round():
            marks.append(time.perf_counter())
            state["stop"] = not window.next_unit() or state["round"] >= len(inputs["plan"])
            state["current"] = state["round"]
            state["round"] += 0 if state["stop"] else 1

        barrier = threading.Barrier(self.clients, action=next_round)

        def send(connection, kind, method, path, tenant, payload=None):
            """One request: ``(status, body, seconds, request id)`` or ``None``."""
            body = json.dumps(payload).encode() if payload is not None else None
            headers = {"X-Charles-Tenant": tenant}
            if body is not None:
                headers["Content-Type"] = "application/json"
            request_id = f"{tenant}-{next(ids)}"
            span = contextlib.nullcontext()
            if recorder is not None:
                headers[layers.REQUEST_HEADER] = request_id
                span = recorder.request(f"bench.{kind}", request_id)
            begun = time.perf_counter()
            try:
                with span:
                    connection.request(method, path, body=body, headers=headers)
                    response = connection.getresponse()
                    data = response.read()
            except (OSError, http.client.HTTPException) as error:
                connection.close()
                with lock:
                    tally.record(False, f"{kind}: {error!r}")
                return None
            return response.status, data, time.perf_counter() - begun, request_id

        def finish(kind, answer, ok, note):
            with lock:
                if tally.record(ok, note):
                    samples[kind if kind in samples else "other"].append(answer[2])

        def call(connection, kind, method, path, tenant, payload=None):
            answer = send(connection, kind, method, path, tenant, payload)
            if answer is None:
                return None
            ok = 200 <= answer[0] < 300
            finish(kind, answer, ok, f"{kind}: HTTP {answer[0]}")
            return json.loads(answer[1]) if ok else None

        def session(connection, tenant, timeline_index, twin):
            timeline = inputs["pool"][timeline_index]
            created = call(
                connection, "create", "POST", "/v1/sessions", tenant,
                {"key": timeline["key"], "config": dict(SERVE_CONFIG)},
            )
            if created is None:
                return
            path = f"/v1/sessions/{created['session']}"
            for step, (name, csv_text) in enumerate(timeline["csvs"]):
                call(connection, "advance", "POST", f"{path}/advance", tenant,
                     {"version": name, "csv": csv_text})
                if step == 0:
                    continue
                answer = send(connection, "summarize", "POST", f"{path}/summarize", tenant,
                              {"target": TARGET})
                if answer is None:
                    continue
                status, data, _, request_id = answer
                if not 200 <= status < 300:
                    finish("summarize", answer, False, f"summarize: HTTP {status}")
                    continue
                body = json.loads(data)
                served = [[entry["summary"], entry["score"]] for entry in body["rankings"]]
                finish(
                    "summarize", answer,
                    ranking_bytes(served) == reference[timeline_index][step - 1],
                    f"summarize: served rankings differ from direct (timeline {timeline_index})",
                )
                with lock:
                    classes.setdefault((twin, timeline_index, step), []).append(answer[2])
                if not body["deduped"]:
                    with lock:
                        stats.append(body["stats"])
                        leaders.append(request_id)
            call(connection, "close", "DELETE", path, tenant)

        def client(index):
            tenant = f"tenant-{index}"
            connection = http.client.HTTPConnection(host, int(port), timeout=120)
            try:
                while True:
                    barrier.wait()
                    if state["stop"]:
                        return
                    plan = inputs["plan"][state["current"]]
                    session(connection, tenant, plan[index], plan[0] == plan[1])
            finally:
                connection.close()

        threads = [threading.Thread(target=client, args=(i,)) for i in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return {
            "samples": samples,
            "classes": classes,
            "completed": sum(len(values) for values in samples.values()),
            "rounds": state["round"],
            "round_seconds": [
                (tuple(inputs["plan"][index]), marks[index + 1] - marks[index])
                for index in range(state["round"])
            ],
            "stats": stats,
            "leaders": leaders,
        }

    @staticmethod
    def scrape(server) -> dict:
        """The server's ``/metrics`` samples."""
        host, port = server.url.split("//", 1)[1].split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            connection.request("GET", "/metrics")
            return parse_prometheus(connection.getresponse().read().decode("utf-8"))
        finally:
            connection.close()

    def run(self, inputs, server, seconds: float, trace: bool):
        tally = Tally()
        reference = self.reference(inputs)
        if not trace:
            return tally, self.summary(self.drive(inputs, reference, server, seconds, tally))
        plain = self.drive(inputs, reference, server, seconds / 2, tally)
        recorder = Recorder()
        before = self.scrape(server)
        shims = layers.install(recorder)
        try:
            traced = self.drive(inputs, reference, server, seconds / 2, tally, recorder)
        finally:
            shims.remove()
        after = self.scrape(server)
        report = self.summary(plain)
        sessions = traced["rounds"] * self.clients
        figures = layers.span_figures(recorder.spans)
        per_layer = layers.per_unit(figures, sessions)
        per_layer.update(layers.search_figures(traced["stats"], sessions))
        per_layer.update(layers.resolution_figures(before, after))
        per_layer.update(self.serving_figures(before, after, recorder, traced["leaders"]))
        per_layer["trace.overhead_frac"] = (
            self.summary(traced)["summarize_p50_s"] / report["summarize_p50_s"] - 1.0
        )
        report["per_layer"] = per_layer
        report["adds_up"] = layers.adds_up(figures)
        report["recorders"] = {"sessions": recorder}
        return tally, report

    @staticmethod
    def serving_figures(before, after, recorder, leaders) -> dict:
        """Server-side route means, dedup and shedding from ``/metrics`` deltas."""

        def delta(name):
            return after.get(name, 0.0) - before.get(name, 0.0)

        def route_mean(route):
            label = f'{{route="/v1/sessions/{{id}}/{route}"}}'
            return layers.ratio(
                delta(f"serve_request_seconds_sum{label}"),
                delta(f"serve_request_seconds_count{label}"),
            )

        leader_count = delta('serve_dedup_total{outcome="leader"}')
        followers = delta('serve_dedup_total{outcome="follower"}')
        shed = sum(delta(name) for name in after if name.startswith("serve_shed_total"))
        # client-observed summarize latency minus the engine time under it,
        # over the requests that ran the engine themselves (dedup leaders)
        roots = {span[5]: span for span in recorder.spans if span[4] is None}
        engine: dict[str, float] = {}
        for span in recorder.spans:
            if span[1] == "serving.engine" and span[5] is not None:
                engine[span[5]] = engine.get(span[5], 0.0) + span[3] - span[2]
        gaps = [
            (roots[request][3] - roots[request][2]) - engine[request]
            for request in leaders
            if request in roots and request in engine
        ]
        return {
            "serving.route.summarize_s": route_mean("summarize"),
            "serving.route.advance_s": route_mean("advance"),
            "serving.overhead_s": statistics.mean(gaps) if gaps else 0.0,
            "serving.dedup_hit_rate": layers.ratio(followers, leader_count + followers),
            "serving.shed": shed,
        }

    @staticmethod
    def summary(drive) -> dict:
        """End-to-end figures of one drive, with every kind of round weighed the same.

        Twin rounds share one engine run and so are about twice as fast as
        the others; a plain median of all samples lies in the gap between
        the two and jumps from run to run.  ``summarize_p50_s`` is therefore
        the mean over request classes (twin round or not, timeline, hop) of
        each class's median, and ``requests_per_s`` the requests of a round
        over the mean of each timeline combination's median round time.
        """
        summarize = drive["samples"]["summarize"]
        advance = drive["samples"]["advance"]
        rounds: dict[tuple, list[float]] = {}
        for combination, seconds in drive["round_seconds"]:
            rounds.setdefault(combination, []).append(seconds)
        round_s = statistics.mean(statistics.median(values) for values in rounds.values())
        return {
            "summarize_p50_s": statistics.mean(
                statistics.median(values) for values in drive["classes"].values()
            ),
            "requests_per_s": drive["completed"] / drive["rounds"] / round_s,
            "summarize_p90_s": percentile(summarize, 0.9),
            "summarize_beyond_p90": beyond(summarize, 0.9),
            "advance_p50_s": statistics.median(advance),
            "advance_p90_s": percentile(advance, 0.9),
            "advance_beyond_p90": beyond(advance, 0.9),
            "summarize_samples": len(summarize),
            "advance_samples": len(advance),
        }


WORKLOADS = {workload.name: workload for workload in (PairCold, TimelineFleet, ServeSessions)}
