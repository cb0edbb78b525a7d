"""End-to-end durability: crash recovery byte-identity and the full
bit-rot → detect → quarantine → heal → resolve loop, plus the SCRUB and
RECOVER gateway verbs."""

import pytest

from repro.scenario import answer_signature
from repro.store.scenario import run_durability_scenario, run_scrub_scenario

SEEDS = [0, 7]


@pytest.mark.parametrize("seed", SEEDS)
class TestCrashRecovery:
    def test_recovered_cluster_answers_byte_identically(self, seed):
        result = run_durability_scenario(
            group_count=2, database_size=12, probe_count=4, seed=seed
        )
        assert result.identical, result.mismatched_queries
        assert result.blocks_recovered > 0
        assert result.recall == result.control_recall
        for victim, report in result.recovery.items():
            assert report["crc_errors"] == 0, (victim, report)
            assert not report["snapshot_corrupt"], victim

    def test_same_seed_replays_byte_identically(self, seed):
        first = run_durability_scenario(
            group_count=2, database_size=12, probe_count=4, seed=seed
        )
        second = run_durability_scenario(
            group_count=2, database_size=12, probe_count=4, seed=seed
        )
        assert [answer_signature(r) for r in first.probe_reports] \
            == [answer_signature(r) for r in second.probe_reports]
        assert first.recovery == second.recovery
        assert first.victims == second.victims


class TestScrubLoop:
    def test_rot_is_detected_healed_and_never_served(self):
        result = run_scrub_scenario(seed=0)
        assert len(result.flips) == 2
        assert result.resolved, result.summary_rows()
        assert result.wrong_answers == []
        assert result.unhealed == 0
        chain = result.event_chain()
        for kind in ("bit_flip", "corruption_detected", "scrub_heal",
                     "repair"):
            assert kind in chain, (kind, chain)
        # Causality: rot lands, then detection, then the heal.
        assert chain.index("bit_flip") \
            < chain.index("corruption_detected") \
            < chain.index("scrub_heal")

    def test_detect_only_audit_counts_unhealed(self):
        # With auto-heal requested the loop closes, so the audit is clean;
        # the summary carries the detection counters from the chaos run.
        result = run_scrub_scenario(seed=7)
        assert result.corruptions_detected >= len(result.flips)
        assert result.chaos_summary["scrub_passes"] > 0
        assert result.chaos_summary["replicas_checked"] > 0


class TestServeVerbs:
    @pytest.fixture()
    def service(self):
        from repro.core import Mendel, MendelConfig
        from repro.seq.alphabet import PROTEIN
        from repro.seq.generate import random_set
        from repro.serve.service import QueryService

        db = random_set(count=10, length=80, alphabet=PROTEIN, rng=3)
        mendel = Mendel.build(
            db, MendelConfig(group_count=2, group_size=2, replication=2,
                             sample_size=128, seed=1),
        )
        service = QueryService(mendel)
        yield service
        service.close()

    def test_scrub_verb_detects_and_heals(self, service):
        clean = service.scrub()
        assert clean["mismatches"] == 0
        node = service.mendel.index.topology.nodes[0]
        block_id = node.durable.manifest_ids()[0]
        node.durable.corrupt_block(block_id, bit=5)
        version = service.mendel.index_version
        dirty = service.scrub()
        assert dirty["mismatches"] == 1
        assert dirty["quarantined"] == 1
        assert dirty["heals_requested"] == 1
        # Holdings changed, so cached answers must be invalidated.
        assert service.mendel.index_version > version
        assert service.scrub()["mismatches"] == 0

    def test_recover_verb_restarts_dead_nodes(self, service):
        index = service.mendel.index
        victim = index.topology.nodes[0]
        index.fail_node(victim.node_id)
        outcome = service.recover()
        assert outcome["was_dead"] == [victim.node_id]
        assert outcome["still_dead"] == []
        assert outcome["recovered"][victim.node_id]["blocks"] > 0
        with pytest.raises(KeyError):
            service.recover(node_id="nope")

    def test_health_reports_durability(self, service):
        frame = service.health()
        durability = frame["durability"]
        assert durability["durable_blocks"] > 0
        assert durability["wal_records"] >= 0
        assert durability["degraded_nodes"] == []


@pytest.mark.chaos
class TestLibraryScrub:
    """``mendel.scrub()`` runs the same pass as the gateway's SCRUB."""

    @pytest.fixture()
    def mendel(self):
        from repro.core import Mendel, MendelConfig
        from repro.seq.alphabet import PROTEIN
        from repro.seq.generate import random_set

        db = random_set(count=10, length=80, alphabet=PROTEIN, rng=3)
        return Mendel.build(
            db, MendelConfig(group_count=2, group_size=2, replication=2,
                             sample_size=128, seed=1),
        )

    def test_clean_scrub_keeps_the_index_version(self, mendel):
        version = mendel.index_version
        report = mendel.scrub()
        assert report.replicas_checked > 0
        assert (report.mismatches, report.quarantined) == (0, 0)
        assert mendel.index_version == version

    def test_flipped_bit_is_quarantined_healed_and_bumps_the_version(
        self, mendel
    ):
        node = mendel.index.topology.nodes[0]
        node.durable.corrupt_block(node.durable.manifest_ids()[0], bit=5)
        version = mendel.index_version
        report = mendel.scrub()
        assert (report.mismatches, report.quarantined,
                report.heals_requested) == (1, 1, 1)
        assert mendel.index_version > version
        healed = mendel.scrub()
        assert healed.mismatches == 0
        assert mendel.index_version == version + 1
