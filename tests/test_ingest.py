"""Live ingest across the stack: EdgeDelta, journal, view extension, serving.

Covers the epoch-delta append path end to end — the structured
:class:`~repro.graph.temporal_graph.EdgeDelta` mutation record, the
incremental :meth:`GraphView.extended_with` extension (append-only
fast path and out-of-order fallback), the CRC-checked epoch
journal sidecar (:mod:`repro.store.journal`) with its replay/stale/ahead
boot rules, copy-on-write of mmap boots under both mutator families, the
service's delta-aware cache invalidation, and the sharded router's
ingest → journal → generation-swap re-warm lifecycle.
"""

from __future__ import annotations

import json
import os
import random
import threading

import pytest

from repro.algorithms import get_algorithm
from repro.datasets.registry import load_dataset
from repro.graph.generators import uniform_random_temporal_graph
from repro.graph.temporal_graph import TemporalGraph
from repro.graph.views import GraphView
from repro.queries.query import TspgQuery
from repro.service import RequestCore, ShardedTspgService, TspgService
from repro.store import (
    ResidencyPolicy,
    ShardSnapshotSet,
    SnapshotError,
    SnapshotGraphStore,
    append_journal_delta,
    boot_snapshot,
    clear_journal,
    inspect_journal,
    journal_path,
    read_journal,
    replay_journal,
    save_snapshot,
)


def sample_graph():
    return TemporalGraph(edges=[
        ("s", "b", 2), ("s", "a", 3), ("b", "c", 3), ("b", "d", 3),
        ("a", "d", 5), ("c", "t", 7), ("d", "t", 2), ("b", "t", 6),
    ])


def answers(graph, source="s", target="t", interval=(1, 9)):
    outcome = get_algorithm("VUG").run(graph, source, target, interval)
    return (
        frozenset(outcome.result.vertices),
        frozenset(outcome.result.edges),
    )


# ----------------------------------------------------------------------
# EdgeDelta and the append log
# ----------------------------------------------------------------------
class TestEdgeDelta:
    def test_append_returns_ordered_delta(self):
        graph = sample_graph()
        epoch = graph.epoch
        delta = graph.append_edges([("t", "z", 9), ("c", "z", 8)])
        assert delta.rows == (("c", "z", 8), ("t", "z", 9))
        assert delta.old_epoch == epoch and delta.new_epoch == epoch + 1
        assert delta.append_only
        assert delta.min_timestamp == 8 and delta.max_timestamp == 9
        assert delta.new_vertices == ("z",)
        assert graph.epoch == epoch + 1

    def test_empty_delta_does_not_advance_the_epoch(self):
        graph = sample_graph()
        epoch = graph.epoch
        delta = graph.append_edges([("s", "b", 2)])  # exact duplicate
        assert not delta
        assert delta.num_rows == 0
        assert graph.epoch == epoch

    def test_self_loop_rejected_before_any_row_applies(self):
        graph = sample_graph()
        before = graph.num_edges
        with pytest.raises(ValueError):
            graph.append_edges([("a", "z", 9), ("z", "z", 10)])
        assert graph.num_edges == before

    def test_out_of_order_rows_are_not_append_only(self):
        graph = sample_graph()
        delta = graph.append_edges([("a", "c", 2)])
        assert not delta.append_only
        assert graph.sorted_edges()[0].timestamp == 2

    def test_deltas_since_returns_the_contiguous_chain(self):
        graph = sample_graph()
        epoch = graph.epoch
        first = graph.append_edges([("t", "x", 9)])
        second = graph.append_edges([("x", "y", 10)])
        assert graph.deltas_since(graph.epoch) == []
        assert graph.deltas_since(epoch) == [first, second]
        assert graph.deltas_since(first.new_epoch) == [second]

    def test_legacy_mutation_breaks_the_chain(self):
        graph = sample_graph()
        epoch = graph.epoch
        graph.append_edges([("t", "x", 9)])
        graph.add_edge("x", "y", 10)  # invalidate-everything contract
        assert graph.deltas_since(epoch) is None

    def test_append_matches_legacy_add_edges_end_state(self):
        base = uniform_random_temporal_graph(
            num_vertices=14, num_edges=90, num_timestamps=25, seed=3
        )
        rng = random.Random(4)
        rows = [
            (rng.randrange(14), rng.randrange(14), rng.randint(1, 40))
            for _ in range(60)
        ]
        rows = [(u, v, t) for (u, v, t) in rows if u != v]
        appended, legacy = base.copy(), base.copy()
        appended.append_edges(rows)
        legacy.add_edges(rows)
        assert list(appended.edge_tuples()) == list(legacy.edge_tuples())
        assert appended.timestamps() == legacy.timestamps()


# ----------------------------------------------------------------------
# Incremental view extension
# ----------------------------------------------------------------------
class TestViewExtension:
    def test_append_only_extension_replaces_the_cached_view(self):
        graph = sample_graph()
        old_view = graph.view()
        graph.append_edges([("t", "z", 9)])
        view = graph.view()
        assert view is not old_view
        assert view.epoch == graph.epoch
        assert old_view.num_edges + 1 == view.num_edges

    def test_mmap_append_extends_without_rebuilding_or_touching_the_mapped_view(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "extend.tspgsnap")
        save_snapshot(sample_graph(), path)
        boot = boot_snapshot(path, mmap=True)
        if not boot.graph.is_lazily_booted:
            pytest.skip("zero-copy boot unavailable on this platform")
        mapped = boot.graph.view()
        old_len = mapped.num_edges

        def no_rebuild(self, delta):
            raise AssertionError("an append-only delta rebuilt the view")

        with monkeypatch.context() as patch:
            patch.setattr(GraphView, "_rebuilt_with", no_rebuild)
            boot.graph.append_edges([("t", "z", 9)])
        assert type(mapped.ts) is memoryview and len(mapped.ts) == old_len
        view = boot.graph.view()
        assert view.num_edges == old_len + 1
        assert list(view.ts)[-1] == 9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_extension_equals_full_rebuild(self, seed):
        graph = uniform_random_temporal_graph(
            num_vertices=12, num_edges=70, num_timestamps=20, seed=seed
        )
        rng = random.Random(seed + 10)
        rows = []
        while len(rows) < 25:
            u, v = rng.randrange(12), rng.randrange(12)
            if u != v:
                rows.append((u, v, rng.randint(1, 60)))  # mixed: some out-of-order
        graph.view()
        graph.append_edges(rows)
        extended = graph.view()
        rebuilt = graph.copy()
        rebuilt._view_cache = None
        fresh = rebuilt.view()
        assert extended.num_edges == fresh.num_edges
        assert list(extended.ts) == list(fresh.ts)
        assert [extended.labels[i] for i in extended.src] == [
            fresh.labels[i] for i in fresh.src
        ]
        assert [extended.labels[i] for i in extended.dst] == [
            fresh.labels[i] for i in fresh.dst
        ]


# ----------------------------------------------------------------------
# The epoch-delta journal sidecar
# ----------------------------------------------------------------------
class TestJournal:
    def _snapshot(self, tmp_path, graph=None):
        path = str(tmp_path / "live.tspgsnap")
        save_snapshot(graph or sample_graph(), path)
        return path

    def test_store_append_journals_and_boot_replays(self, tmp_path):
        path = self._snapshot(tmp_path)
        store = SnapshotGraphStore(path)
        graph = store.load()
        store.append([("t", "z", 9)])
        store.append([("z", "q", 11)])
        sidecar = journal_path(path)
        assert os.path.exists(sidecar)
        info, records = read_journal(sidecar)
        assert len(records) == 2
        assert info.base_epoch + 2 == graph.epoch
        boot = boot_snapshot(path)
        assert boot.journal_records == 2
        assert boot.graph.epoch == graph.epoch
        assert list(boot.graph.edge_tuples()) == list(graph.edge_tuples())

    def test_compact_save_folds_the_journal(self, tmp_path):
        path = self._snapshot(tmp_path)
        store = SnapshotGraphStore(path)
        graph = store.load()
        store.append([("t", "z", 9)])
        save_snapshot(graph, path, compact=True)
        assert not os.path.exists(journal_path(path))
        boot = boot_snapshot(path)
        assert boot.journal_records == 0
        assert boot.graph.epoch == graph.epoch
        assert ("t", "z", 9) in set(boot.graph.edge_tuples())

    def test_stale_journal_from_a_compaction_crash_is_skipped(self, tmp_path):
        path = self._snapshot(tmp_path)
        store = SnapshotGraphStore(path)
        graph = store.load()
        store.append([("t", "z", 9)])
        # A crash between the snapshot rewrite and the journal unlink
        # leaves a sidecar whose base epoch predates the snapshot.
        save_snapshot(graph, path)
        boot = boot_snapshot(path)
        assert boot.journal_records == 0
        assert boot.graph.epoch == graph.epoch

    def test_journal_ahead_of_the_snapshot_raises(self, tmp_path):
        path = self._snapshot(tmp_path)
        graph = boot_snapshot(path).graph
        graph.append_edges([("t", "z", 9)])  # not journaled
        delta = graph.append_edges([("z", "q", 11)])
        # The journal starts one epoch past the snapshot on disk — the
        # file regressed underneath its sidecar.
        append_journal_delta(path, delta)
        with pytest.raises(SnapshotError, match="regressed"):
            boot_snapshot(path)

    def test_corrupt_record_flagged_by_inspect_and_rejected_by_replay(
        self, tmp_path
    ):
        path = self._snapshot(tmp_path)
        store = SnapshotGraphStore(path)
        store.load()
        store.append([("t", "z", 9)])
        sidecar = journal_path(path)
        blob = bytearray(open(sidecar, "rb").read())
        blob[-1] ^= 0xFF
        with open(sidecar, "wb") as handle:
            handle.write(blob)
        _info, records = inspect_journal(sidecar)
        assert not records[-1].crc_ok
        with pytest.raises(SnapshotError):
            read_journal(sidecar)
        with pytest.raises(SnapshotError):
            boot_snapshot(path)

    def test_gap_in_the_delta_chain_is_rejected(self, tmp_path):
        path = self._snapshot(tmp_path)
        graph = boot_snapshot(path).graph
        append_journal_delta(path, graph.append_edges([("t", "z", 9)]))
        graph.add_edge("z", "q", 11)  # legacy mutation outside the journal
        delta = graph.append_edges([("q", "r", 12)])
        with pytest.raises(SnapshotError, match="journaled append path"):
            append_journal_delta(path, delta)

    def test_replay_with_interval_clips_rows_and_pins_the_epoch(
        self, tmp_path
    ):
        path = self._snapshot(tmp_path)
        store = SnapshotGraphStore(path)
        graph = store.load()
        store.append([("t", "z", 9), ("z", "q", 30)])
        clipped = boot_snapshot(path, interval=(1, 9)).graph
        assert ("t", "z", 9) in set(clipped.edge_tuples())
        assert ("z", "q", 30) not in set(clipped.edge_tuples())
        assert clipped.epoch == graph.epoch

    def test_clear_journal_reports_whether_anything_was_removed(
        self, tmp_path
    ):
        path = self._snapshot(tmp_path)
        assert not clear_journal(path)
        store = SnapshotGraphStore(path)
        store.load()
        store.append([("t", "z", 9)])
        assert clear_journal(path)
        assert not os.path.exists(journal_path(path))

    def test_replay_journal_is_idempotent_per_boot(self, tmp_path):
        path = self._snapshot(tmp_path)
        store = SnapshotGraphStore(path)
        store.load()
        store.append([("t", "z", 9)])
        graph = boot_snapshot(path).graph
        # A second replay of the same sidecar starts from the already
        # advanced epoch — the chain no longer lines up.
        with pytest.raises(SnapshotError):
            replay_journal(graph, journal_path(path))


# ----------------------------------------------------------------------
# Copy-on-write of mmap boots, both mutator families
# ----------------------------------------------------------------------
class TestMmapCopyOnWrite:
    def _mmap_boot(self, tmp_path, name):
        path = str(tmp_path / f"{name}.tspgsnap")
        graph = sample_graph()
        graph.warm_indices()
        save_snapshot(graph, path)
        boot = boot_snapshot(path, mmap=True)
        if not boot.graph.is_lazily_booted:
            pytest.skip("zero-copy boot unavailable on this platform")
        return path, boot.graph, open(path, "rb").read()

    def test_legacy_mutator_hydrates_and_leaves_the_file_alone(
        self, tmp_path
    ):
        path, graph, before = self._mmap_boot(tmp_path, "legacy")
        graph.add_edge("t", "z", 9)
        assert not graph.is_lazily_booted
        assert graph._out_data is not None
        assert ("z", 9) in graph._out_data["t"]
        assert open(path, "rb").read() == before

    def test_journaled_append_only_ingest_does_not_hydrate(self, tmp_path):
        path, graph, before = self._mmap_boot(tmp_path, "delta")
        delta = graph.append_edges([("t", "z", 9)])
        assert delta.append_only
        assert graph.is_lazily_booted
        assert graph._out_data is None  # adjacency still unpickled
        assert graph.num_edges == 9
        # The eventual first adjacency touch replays the delta.
        assert ("z", 9) in graph.out_neighbors_after("t", 0)
        assert open(path, "rb").read() == before

    def test_out_of_order_append_degrades_to_hydration(self, tmp_path):
        _path, graph, _before = self._mmap_boot(tmp_path, "ooo")
        delta = graph.append_edges([("a", "c", 2)])
        assert not delta.append_only
        assert not graph.is_lazily_booted
        reference = sample_graph()
        reference.append_edges([("a", "c", 2)])
        assert answers(graph) == answers(reference)

    def test_copy_of_a_lazy_boot_stays_lazy(self, tmp_path):
        _path, graph, _before = self._mmap_boot(tmp_path, "clone")
        clone = graph.copy()
        assert clone.is_lazily_booted and graph.is_lazily_booted
        clone.append_edges([("t", "z", 9)])
        assert clone.is_lazily_booted
        assert clone.num_edges == graph.num_edges + 1
        assert ("t", "z", 9) not in set(graph.edge_tuples())


# ----------------------------------------------------------------------
# Delta-aware service cache invalidation
# ----------------------------------------------------------------------
class TestServiceIngest:
    def test_disjoint_window_survives_the_ingest(self):
        service = TspgService(sample_graph())
        query = TspgQuery("s", "t", (1, 9))
        service.submit(query)
        service.ingest([("t", "z", 40)])  # beyond every cached window
        outcome = service.submit(query)
        assert outcome.extras.get("cache_hit")
        assert service.cache_stats().hits == 1

    def test_intersecting_window_is_dropped(self):
        service = TspgService(sample_graph())
        query = TspgQuery("s", "t", (1, 9))
        baseline = service.submit(query)
        service.ingest([("s", "c", 4), ("c", "t", 5)])
        outcome = service.submit(query)
        assert not outcome.extras.get("cache_hit")
        assert outcome.result.edges > baseline.result.edges

    def test_new_vertex_endpoint_is_dropped_even_when_disjoint(self):
        service = TspgService(sample_graph())
        query = TspgQuery("s", "t", (1, 9))
        service.submit(query)
        delta = service.ingest([("z", "q", 40)])
        assert set(delta.new_vertices) == {"z", "q"}
        # The old query touches neither new vertex and its window is
        # disjoint, so its entry survived — re-stamped to the new epoch.
        assert service.submit(query).extras.get("cache_hit")
        assert service.warmed_epoch == delta.new_epoch
        # A query *on* a new vertex answers (uncached) against fresh state.
        outcome = service.submit(TspgQuery("z", "q", (35, 45)))
        assert not outcome.extras.get("cache_hit")
        assert outcome.result.edges

    def test_legacy_mutation_still_clears_wholesale(self):
        service = TspgService(sample_graph())
        low = TspgQuery("s", "t", (1, 4))
        service.submit(low)
        service.graph.add_edge("t", "z", 40)
        outcome = service.submit(low)
        assert not outcome.extras.get("cache_hit")

    def test_snapshot_booted_service_journals_and_reboots(self, tmp_path):
        path = str(tmp_path / "svc.tspgsnap")
        save_snapshot(sample_graph(), path)
        service = TspgService.from_snapshot(path)
        service.ingest([("t", "z", 9)])
        service.ingest([("z", "q", 11)])
        assert os.path.exists(journal_path(path))
        reboot = TspgService.from_snapshot(path)
        assert reboot.graph.epoch == service.graph.epoch
        assert list(reboot.graph.edge_tuples()) == list(
            service.graph.edge_tuples()
        )

    def test_concurrent_ingest_and_queries_stay_consistent(self):
        graph = uniform_random_temporal_graph(
            num_vertices=16, num_edges=110, num_timestamps=30, seed=9
        )
        service = TspgService(graph.copy())
        batches = [
            [(1, 2, 31 + i), (3, 4, 32 + i)] for i in range(0, 12, 2)
        ]
        query = TspgQuery(0, 5, (1, 30))
        failures = []

        def run_queries():
            try:
                for _ in range(40):
                    service.submit(query)
            except BaseException as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        threads = [threading.Thread(target=run_queries) for _ in range(2)]
        for thread in threads:
            thread.start()
        for batch in batches:
            service.ingest(batch)
        for thread in threads:
            thread.join()
        assert not failures
        reference = graph.copy()
        for batch in batches:
            reference.append_edges(batch)
        assert answers(service.graph, 0, 5, (1, 30)) == answers(
            reference, 0, 5, (1, 30)
        )


# ----------------------------------------------------------------------
# Residency retirement on generation swap
# ----------------------------------------------------------------------
def _d1_snapshot_boot(tmp_path):
    path = str(tmp_path / "d1.tspgsnap")
    save_snapshot(load_dataset("D1"), path)
    return TspgService.from_snapshot(path, cache_size=0)


def _d1_shard_set_boot(tmp_path):
    path = str(tmp_path / "shards")
    ShardedTspgService(load_dataset("D1"), 2, overlap=10).save_shards(path)
    return ShardedTspgService.from_shard_snapshots(path, cache_size=0)


@pytest.mark.parametrize(
    "boot", [_d1_snapshot_boot, _d1_shard_set_boot], ids=["snapshot", "shard-set"]
)
def test_a_query_racing_the_journal_write_answers_at_its_stamped_epoch(
    tmp_path, monkeypatch, boot
):
    # A query that arrives after an ingest applied its rows but before
    # the journal write must not carry an ingested edge under the
    # pre-ingest epoch: the append, the journal write and the epoch
    # publish happen under the lock the query takes to rewarm.
    import repro.store.journal as journal_mod

    service = boot(tmp_path)
    core = RequestCore(service)
    request = json.dumps({
        "source": 17, "target": 37, "begin": 100, "end": 100,
        "include_edges": True,
    })
    replies = []
    racer = threading.Thread(
        target=lambda: replies.append(core.handle_line(request)[0])
    )
    real_append = journal_mod.append_journal_delta

    def racing_append(base, delta):
        racer.start()
        racer.join(timeout=0.5)  # the query gets its chance first
        return real_append(base, delta)

    monkeypatch.setattr(journal_mod, "append_journal_delta", racing_append)
    row = (17, 37, 100)
    delta = service.ingest([row])
    racer.join()
    (reply,) = replies
    assert reply["ok"], reply
    before = load_dataset("D1")
    after = before.copy()
    after.append_edges([row])
    graphs = {delta.old_epoch: before, delta.new_epoch: after}
    stamped = range(reply["epoch_before"], reply["epoch_after"] + 1)
    assert set(stamped) <= set(graphs), reply
    served = frozenset(tuple(edge) for edge in reply["edges"])
    assert any(
        served == answers(graphs[epoch], 17, 37, (100, 100))[1]
        for epoch in stamped
    ), reply


class TestResidencyRetirement:
    def test_retire_all_counts_and_clears(self):
        policy = ResidencyPolicy()
        policy.register(bytearray(4096))
        policy.register(bytearray(4096))
        assert policy.stats()["mappings"] == 2
        assert policy.retire_all() == 2
        assert policy.stats()["mappings"] == 0
        assert policy.stats()["retirements"] == 2
        assert policy.retire_all() == 0
        assert policy.stats()["retirements"] == 2

    def test_merged_stats_sum_retirements(self):
        first, second = ResidencyPolicy(), ResidencyPolicy()
        first.register(bytearray(4096))
        first.retire_all()
        merged = first.merged_with([second])
        assert merged["retirements"] == 1


# ----------------------------------------------------------------------
# Router ingest, set journal replay and the generation swap
# ----------------------------------------------------------------------
class TestRouterIngest:
    def _shard_dir(self, tmp_path, graph):
        path = str(tmp_path / "shards")
        ShardedTspgService(graph, 3).save_shards(path)
        return path

    def test_ingest_journals_and_a_fresh_boot_replays(self, tmp_path):
        graph = sample_graph()
        shard_dir = self._shard_dir(tmp_path, graph)
        router = ShardedTspgService.from_shard_snapshots(shard_dir)
        rows = [("t", "z", 9), ("z", "q", 30)]  # in-span + beyond-span
        delta = router.ingest(rows)
        assert delta.num_rows == 2
        assert os.path.exists(os.path.join(shard_dir, "ingest.tspgjournal"))
        reference = graph.copy()
        reference.append_edges(rows)
        for contender in (
            router,
            ShardedTspgService.from_shard_snapshots(shard_dir),
        ):
            outcome = contender.submit(TspgQuery("s", "q", (1, 30)))
            assert answers(reference, "s", "q", (1, 30)) == (
                frozenset(outcome.result.vertices),
                frozenset(outcome.result.edges),
            )

    def test_vertices_named_only_by_overflow_rows_are_known(self, tmp_path):
        # Rows past every shard extent live only in the overflow list (and
        # the journal); membership and label coercion must still see their
        # endpoints — the integer 7 resolves to the label "7" only if
        # has_vertex("7") answers True.
        graph = sample_graph()
        shard_dir = self._shard_dir(tmp_path, graph)
        router = ShardedTspgService.from_shard_snapshots(shard_dir)
        rows = [("t", "z", 30), ("z", "7", 31)]
        router.ingest(rows)
        router.ingest(rows)  # a repeat adds no overflow row

        def check(contender):
            assert contender.has_vertex("z") and contender.has_vertex("7")
            assert not contender.has_vertex(7)
            query = RequestCore(contender).parse_query(
                {"source": 7, "target": "z", "begin": 30, "end": 31}
            )
            assert (query.source, query.target) == ("7", "z")
            assert contender._graph is None  # answered union-free

        check(router)
        assert router._overflow_rows == rows
        rebooted = ShardedTspgService.from_shard_snapshots(shard_dir)
        check(rebooted)  # the journal replay rebuilt the overflow index
        assert rebooted._overflow_rows == rows
        rebooted.rewarm_shards()
        assert rebooted._overflow_rows == []
        assert not rebooted._overflow_row_set
        assert not rebooted._overflow_vertices
        assert rebooted.has_vertex("7")
        # Generation N+1 holds the rows in its shards, no overflow left.
        regen = ShardedTspgService.from_shard_snapshots(shard_dir)
        assert regen._overflow_rows == []
        check(regen)

    def test_snapshot_booted_ingest_does_not_materialise_the_union(
        self, tmp_path
    ):
        shard_dir = self._shard_dir(tmp_path, sample_graph())
        router = ShardedTspgService.from_shard_snapshots(shard_dir)
        router.ingest([("t", "z", 9)])
        assert router._graph is None

    def test_rewarm_folds_the_journal_into_generation_n_plus_1(
        self, tmp_path
    ):
        graph = sample_graph()
        shard_dir = self._shard_dir(tmp_path, graph)
        router = ShardedTspgService.from_shard_snapshots(shard_dir)
        delta = router.ingest([("t", "z", 9), ("z", "q", 30)])
        manifest = router.rewarm_shards()
        assert manifest.epoch == delta.new_epoch
        assert not os.path.exists(
            os.path.join(shard_dir, "ingest.tspgjournal")
        )
        reference = graph.copy()
        reference.append_edges([("t", "z", 9), ("z", "q", 30)])
        regen = ShardedTspgService.from_shard_snapshots(shard_dir)
        outcome = regen.submit(TspgQuery("s", "q", (1, 30)))
        assert answers(reference, "s", "q", (1, 30)) == (
            frozenset(outcome.result.vertices),
            frozenset(outcome.result.edges),
        )

    def test_a_crash_before_the_manifest_commit_keeps_generation_n_serving(
        self, tmp_path, monkeypatch
    ):
        # Kill the re-warm at the worst moment: the generation-N+1 shard
        # files are on disk but the atomic manifest commit has not run.
        # Generation N plus the journal must still serve, and the next
        # boot replays the journal as if the re-warm was never attempted.
        import repro.store.shard_set as shard_set_mod

        shard_dir = str(tmp_path / "shards")
        ShardedTspgService(load_dataset("D1"), 3).save_shards(shard_dir)
        router = ShardedTspgService.from_shard_snapshots(shard_dir)
        base_epoch = router._current_topology().epoch
        delta = router.ingest([(0, 1, 200), (1, 2, 201), (0, 2, 205)])
        sidecar = os.path.join(shard_dir, "ingest.tspgjournal")
        assert os.path.exists(sidecar)

        real_commit = shard_set_mod._commit_bytes

        def crash_on_manifest(path, blobs):
            if os.path.basename(str(path)) == "manifest.json":
                raise RuntimeError("injected crash before manifest commit")
            return real_commit(path, blobs)

        with monkeypatch.context() as patch:
            patch.setattr(shard_set_mod, "_commit_bytes", crash_on_manifest)
            with pytest.raises(RuntimeError, match="injected crash"):
                router.rewarm_shards()

        _, records = read_journal(sidecar)
        assert records, "journal emptied before the manifest commit"
        assert ShardSnapshotSet(shard_dir).manifest().epoch == base_epoch
        reboot = ShardedTspgService.from_shard_snapshots(shard_dir)
        assert reboot._current_topology().epoch == delta.new_epoch
        answer = reboot.query(0, 1, (195, 206))
        assert (0, 1, 200) in answer.result.edges

        # A clean re-warm afterwards folds the journal for real.
        manifest = reboot.rewarm_shards()
        assert manifest.epoch == delta.new_epoch
        assert not os.path.exists(sidecar)
        regen = ShardedTspgService.from_shard_snapshots(shard_dir)
        assert (0, 1, 200) in regen.query(0, 1, (195, 206)).result.edges

    def test_rewarm_retires_the_old_generations_residency(self, tmp_path):
        shard_dir = self._shard_dir(tmp_path, sample_graph())
        router = ShardedTspgService.from_shard_snapshots(
            shard_dir, mmap=True, residency=True
        )
        stats = router.residency_stats()
        if stats is None or not stats.get("mappings"):
            pytest.skip("no residency mappings on this platform")
        mapped = stats["mappings"]
        router.ingest([("t", "z", 9)])
        router.rewarm_shards()
        assert router.residency_stats()["retirements"] >= mapped

    def test_background_rewarm_returns_a_joinable_thread(self, tmp_path):
        graph = sample_graph()
        shard_dir = self._shard_dir(tmp_path, graph)
        router = ShardedTspgService.from_shard_snapshots(shard_dir)
        router.ingest([("t", "z", 9)])
        worker = router.rewarm_shards(background=True)
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert not os.path.exists(
            os.path.join(shard_dir, "ingest.tspgjournal")
        )

    def test_a_mutation_outside_ingest_stops_journaling(self, tmp_path):
        # As on a flat snapshot: once the source graph moved outside
        # ingest, the set journal can no longer reproduce it, so ingest
        # stops journaling and the set keeps booting at generation N.
        graph = sample_graph()
        shard_dir = str(tmp_path / "shards")
        router = ShardedTspgService(graph, 3)
        router.save_shards(shard_dir)
        graph.add_edge("s", "t", 4)  # outside ingest
        router.ingest([("t", "z", 9)])
        router.ingest([("z", "q", 30)])
        assert not os.path.exists(os.path.join(shard_dir, "ingest.tspgjournal"))
        rebooted = ShardedTspgService.from_shard_snapshots(shard_dir)
        assert rebooted.epoch == ShardSnapshotSet(shard_dir).manifest().epoch
        assert answers(rebooted.graph) == answers(sample_graph())

    def test_rewarm_without_an_attached_set_raises(self):
        router = ShardedTspgService(sample_graph(), 2)
        with pytest.raises(RuntimeError, match="shard snapshot set"):
            router.rewarm_shards()
