"""Content-addressed exchange: CAS core, dedup, manifests, lineage.

The invariant under test throughout: content addressing only ever
changes *timing and billing* — never artifact bytes.  A dedup'd warm
rerun stays byte-identical to its cold run, lineage hits return the
exact prior manifest, and the hash-chained :class:`RunManifest`
re-derives offline and fails loudly on any tampered section or mutated
stored artifact.
"""

import collections
import hashlib
import json

import pytest

from repro.cas import (
    ContentIndex,
    content_hash,
    output_digest,
    sha256_hex,
    stable_serialize,
)
from repro.cloud import Cloud, MB
from repro.cloud.memstore import CacheOutOfMemory
from repro.cloud.objectstore.blobs import compute_etag
from repro.cloud.profiles import ibm_us_east
from repro.cloud.storageview import BoundStorage
from repro.cloud.vm.fleet import fleet_ready
from repro.cloud.vm.relay import relay_ready
from repro.executor import FunctionExecutor
from repro.shuffle import (
    CacheExchange,
    FixedWidthCodec,
    ObjectStoreExchange,
    RelayExchange,
    ShardedRelayExchange,
    ShuffleSort,
    SortedRun,
    StreamConfig,
)
from repro.shuffle.content import (
    LineageCache,
    build_run_manifest,
    derive_chain,
    lineage_cache_for,
    verify_manifest,
    verify_manifest_file,
)

pytestmark = pytest.mark.cas

RECORD_A = (1).to_bytes(8, "big") + bytes(8)
RECORD_B = (2).to_bytes(8, "big") + bytes(8)


def assert_residency_mirrors_entries(store):
    """A store's refcounts are exactly the content addresses of its
    resident entries, counted: none missing, none dangling."""
    resident = collections.Counter(
        entry.sha for entry in store._entries.values() if entry.sha is not None
    )
    assert store.content.refcounts() == dict(resident)


def make_dup_payload(pairs=100):
    """Alternating two-key payload: every equal input split is identical,
    so mapper outputs and per-reducer chunks duplicate across mappers."""
    return (RECORD_A + RECORD_B) * pairs


def sort_region(substrate, *, seed=7, stream=None):
    """A fresh region with a ``data`` bucket and a sort over ``substrate``
    (staged, or streaming under ``stream``); returns (cloud, operator)."""
    cloud = Cloud.fresh(seed=seed, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("data")
    executor = FunctionExecutor(cloud)
    codec = FixedWidthCodec(record_size=16, key_bytes=8)
    if substrate == "objectstore":
        backend = ObjectStoreExchange(stream=stream)
    elif substrate == "cache":
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=2)
        backend = CacheExchange(cluster, stream=stream)
    elif substrate == "sharded-relay":
        fleet = fleet_ready(cloud.vms, "bx2-8x32", shards=2)
        backend = ShardedRelayExchange(fleet, stream=stream)
    else:
        relay = relay_ready(cloud.vms, "bx2-8x32")
        backend = RelayExchange(relay, stream=stream)
    return cloud, ShuffleSort(executor, codec, backend=backend)


def run_sort(substrate, payload, *, workers=2, seed=7, stream=None):
    """One sort on a fresh region; returns (runs_bytes, operator, cloud, result)."""
    cloud, operator = sort_region(substrate, seed=seed, stream=stream)

    def driver():
        yield cloud.store.put("data", "input.bin", payload)
        return (yield operator.sort("data", "input.bin", workers=workers))

    result = cloud.sim.run_process(driver())
    runs = [cloud.store.peek("data", run.key) for run in result.runs]
    return runs, operator, cloud, result


SUBSTRATES = ("objectstore", "cache", "relay", "sharded-relay")


class TestStableSerialize:
    def test_type_tags_disambiguate(self):
        assert stable_serialize("1") != stable_serialize(1)
        assert stable_serialize(b"1") != stable_serialize("1")
        assert stable_serialize(True) != stable_serialize(1)
        assert stable_serialize(1.0) != stable_serialize(1)
        assert stable_serialize(None) != stable_serialize("")

    def test_length_prefixes_prevent_concatenation_collisions(self):
        assert content_hash(["ab", "c"]) != content_hash(["a", "bc"])
        assert content_hash([["a"], "b"]) != content_hash(["a", ["b"]])
        assert content_hash({"ab": "c"}) != content_hash({"a": "bc"})

    def test_dict_order_insensitive(self):
        assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            stable_serialize(object())
        with pytest.raises(TypeError):
            content_hash({"x": {1, 2}})


class TestCanonicalEncoding:
    """The exact bytes of the canonical encoding: every manifest section
    and lineage fingerprint hashes them, so a change here moves every
    recorded content address."""

    @pytest.mark.parametrize(
        "value, encoded",
        [
            (None, b"n;"),
            (True, b"b1;"),
            (False, b"b0;"),
            (0, b"i1:0"),
            (-12, b"i3:-12"),
            (1.5, b"f3:1.5"),
            ("", b"s0:"),
            ("é", b"s2:\xc3\xa9"),
            (b"ab", b"y2:ab"),
            (bytearray(b"ab"), b"y2:ab"),
            ([], b"l0:;"),
            ((1, "a"), b"l2:i1:1s1:a;"),
            ({}, b"d0:;"),
            ({"b": 1, "a": None}, b"d2:s1:an;s1:bi1:1;"),
        ],
    )
    def test_known_encoding(self, value, encoded):
        assert stable_serialize(value) == encoded

    def test_content_hash_is_sha256_of_the_encoding(self):
        assert sha256_hex(b"abc") == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
        value = {"runs": [b"\x00\x01", 3], "mode": "staged"}
        assert content_hash(value) == sha256_hex(stable_serialize(value))


class TestOutputDigest:
    class _Result:
        def __init__(self, runs):
            self.runs = runs

    @staticmethod
    def _stored_runs(cloud, payloads):
        def scenario():
            for index, payload in enumerate(payloads):
                yield cloud.store.put("bucket", f"r{index}", payload)

        cloud.store.ensure_bucket("bucket")
        cloud.sim.run_process(scenario())
        return [
            SortedRun("bucket", f"r{index}", 0, len(payload))
            for index, payload in enumerate(payloads)
        ]

    def test_digest_hashes_the_runs_in_partition_order(self):
        cloud = Cloud.fresh(seed=1, profile=ibm_us_east(deterministic=True))
        runs = self._stored_runs(cloud, [b"first run ", b"second run"])
        full = output_digest(cloud, self._Result(runs), full=True)
        assert full == hashlib.sha256(b"first run second run").hexdigest()
        assert output_digest(cloud, self._Result(runs)) == full[:16]
        assert output_digest(cloud, self._Result(runs[::-1]), full=True) != full

    def test_digest_reads_are_free(self):
        cloud = Cloud.fresh(seed=1, profile=ibm_us_east(deterministic=True))
        runs = self._stored_runs(cloud, [b"abc", b"def"])
        requests, usd = cloud.store.stats.total_requests, cloud.meter.total_usd
        output_digest(cloud, self._Result(runs))
        assert cloud.store.stats.total_requests == requests
        assert cloud.meter.total_usd == usd


class TestContentIndex:
    def test_refcounts_count_duplicate_values(self):
        index = ContentIndex()
        for sha in ("a", "a", "b", None):
            index.add(sha)
        assert index.refcounts() == {"a": 2, "b": 1}
        index.drop("a")
        assert index.resident("a")
        assert index.refcounts() == {"a": 1, "b": 1}

    def test_a_drop_to_zero_is_no_longer_resident(self):
        index = ContentIndex()
        index.add("a")
        index.drop("a")
        index.drop(None)  # a value without an address was never counted
        assert not index.resident("a")
        assert index.refcounts() == {}

    def test_clear_keeps_the_log(self):
        index = ContentIndex()
        index.add("a")
        index.record("out/k", "a", 3.0)
        index.clear()
        assert not index.resident("a")
        assert index.entries("") == [("out/k", "a", 3.0)]

    def test_entries_filter_by_prefix_in_commit_order(self):
        index = ContentIndex()
        index.record("out/b", "1", 1.0)
        index.record("outlier/c", "2", 2.0)
        index.record("out/a", "3", 3.0)
        assert index.entries("out/") == [("out/b", "1", 1.0), ("out/a", "3", 3.0)]
        # A prefix matches whole path segments, slash-terminated or not.
        assert index.entries("out") == index.entries("out/")
        assert [key for key, _sha, _logical in index.entries("outlier")] == [
            "outlier/c",
        ]
        index.record("out", "4", 4.0)
        assert [key for key, _sha, _logical in index.entries("out")] == [
            "out/b", "out/a", "out",
        ]


class TestCosDedup:
    @pytest.fixture
    def cloud(self):
        cloud = Cloud.fresh(seed=3, profile=ibm_us_east(deterministic=True))
        cloud.store.ensure_bucket("data")
        cloud.store.ensure_bucket("other")
        return cloud

    def run(self, cloud, generator):
        return cloud.sim.run_process(generator)

    def test_second_identical_put_short_circuits(self, cloud):
        payload = b"x" * 4096

        def scenario():
            yield cloud.store.put("data", "k1", payload, dedup=True)
            yield cloud.store.put("data", "k2", payload, dedup=True)

        self.run(cloud, scenario())
        assert cloud.store.stats.dedup_ops == 1
        assert cloud.store.stats.dedup_bytes == pytest.approx(len(payload))
        # The dedup'd PUT still stores real bytes under its own key.
        assert cloud.store.peek("data", "k2") == payload
        assert cloud.store.peek("data", "k1") == payload

    def test_dedup_is_opt_in(self, cloud):
        payload = b"y" * 1024

        def scenario():
            yield cloud.store.put("data", "k1", payload, dedup=True)
            yield cloud.store.put("data", "k2", payload)  # legacy path

        self.run(cloud, scenario())
        assert cloud.store.stats.dedup_ops == 0

    def test_bucket_scopes_the_index(self, cloud):
        """Same bytes in another bucket are a different dedup domain —
        collision-shaped sharing across buckets must not alias."""
        payload = b"z" * 2048

        def scenario():
            yield cloud.store.put("data", "k", payload, dedup=True)
            yield cloud.store.put("other", "k", payload, dedup=True)

        self.run(cloud, scenario())
        assert cloud.store.stats.dedup_ops == 0

    def test_overwritten_referent_degrades_to_normal_put(self, cloud):
        """Byte-equality guard: if the indexed referent no longer holds
        the bytes, the PUT transfers instead of aliasing."""
        payload = b"a" * 1000

        def scenario():
            yield cloud.store.put("data", "k1", payload, dedup=True)
            yield cloud.store.put("data", "k1", b"b" * 1000)  # overwrite
            yield cloud.store.put("data", "k2", payload, dedup=True)

        self.run(cloud, scenario())
        assert cloud.store.stats.dedup_ops == 0
        assert cloud.store.peek("data", "k2") == payload

    def test_empty_payload_never_dedups(self, cloud):
        def scenario():
            yield cloud.store.put("data", "e1", b"", dedup=True)
            yield cloud.store.put("data", "e2", b"", dedup=True)

        self.run(cloud, scenario())
        assert cloud.store.stats.dedup_ops == 0

    def test_cas_entries_prefix_filtering(self, cloud):
        """Prefix-sharing keys (``out/`` vs ``outlier/``) separate with or
        without the trailing slash: a prefix matches whole segments."""

        def scenario():
            yield cloud.store.put("data", "out/a", b"1" * 64, dedup=True)
            yield cloud.store.put("data", "outlier/b", b"2" * 64, dedup=True)

        self.run(cloud, scenario())
        keys = [key for key, _sha, _logical in cloud.store.cas_entries("out/")]
        assert keys == ["out/a"]
        shas = dict(
            (key, sha) for key, sha, _logical in cloud.store.cas_entries("out")
        )
        assert shas == {"out/a": sha256_hex(b"1" * 64)}
        keys = [key for key, _sha, _logical in cloud.store.cas_entries("outlier")]
        assert keys == ["outlier/b"]


class TestCacheDedupRestore:
    """Dedup refcounts vs a referent that leaves mid-batch.

    A dedup'd write whose referent left between the residency check and
    the store (replaced earlier in the same batch, or deleted meanwhile)
    must transparently re-send the bytes instead of raising, and the
    final values must be byte-correct.
    """

    @staticmethod
    def _tiny_cluster():
        profile = ibm_us_east(deterministic=True)
        profile.memstore.usable_memory_fraction = 1.0
        profile.memstore.catalog = {
            "tiny": type(next(iter(profile.memstore.catalog.values())))(
                name="tiny",
                memory_gb=1024 / (1 << 30),
                nic_bandwidth=100 * MB,
                hourly_usd=0.1,
            )
        }
        cloud = Cloud.fresh(seed=5, profile=profile)
        return cloud, cloud.cache.provision_ready("tiny")

    def test_mset_dedups_resident_values(self):
        cloud, cluster = self._tiny_cluster()
        client = cluster.client()
        value = b"v" * 200

        def scenario():
            # Residency is checked against what the shard held *before*
            # the batch, so seed the content in its own batch first.
            yield client.mset([("seed", value)])
            yield client.mset([("a", value), ("b", value)])
            return (yield client.mget(["a", "b"]))

        assert cloud.sim.run_process(scenario()) == [value, value]
        totals = cluster.stats_totals()
        assert totals["dedup_hits"] == 2
        assert totals["dedup_bytes"] == pytest.approx(400.0)
        for node in cluster.nodes:
            assert_residency_mirrors_entries(node)

    def test_replaced_referent_mid_batch_restores_and_keeps_bytes(self):
        """The race itself: the batch marks "a" dedup'd while its
        referent "seed" holds the bytes, the same batch replaces "seed"
        first, and the store-time recheck re-sends "a"'s bytes."""
        cloud, cluster = self._tiny_cluster()
        [node] = cluster.nodes
        client = cluster.client()
        dup, other = b"x" * 300, b"o" * 200

        def scenario():
            yield client.mset([("seed", dup)])
            yield client.mset([("seed", other), ("a", dup)])
            return (yield client.mget(["seed", "a"]))

        assert cloud.sim.run_process(scenario()) == [other, dup]
        totals = cluster.stats_totals()
        assert totals["dedup_restores"] == 1  # "a" was re-sent
        assert totals["dedup_hits"] == 0
        # Every byte of both batches crossed the wire ("a"'s once, as
        # the restore), then the MGET read both values back.
        assert node.link.bytes_delivered == pytest.approx(300 + 200 + 300 + (200 + 300))
        assert_residency_mirrors_entries(node)

    def test_noeviction_refusal_restores_the_previous_value(self):
        cloud, cluster = self._tiny_cluster()
        client = cluster.client()
        old, new = b"o" * 300, b"n" * 500

        def scenario():
            yield client.mset([("k", old), ("other", b"p" * 600)])
            with pytest.raises(CacheOutOfMemory):
                yield client.mset([("k", new)])
            return (yield client.mget(["k"]))

        assert cloud.sim.run_process(scenario()) == [old]
        [node] = cluster.nodes
        assert node.content.resident(sha256_hex(old))
        assert not node.content.resident(sha256_hex(new))
        assert_residency_mirrors_entries(node)


class TestRelayResidency:
    """The relay's refcounts follow its entries through every way one
    leaves: a replacing commit, a committed consume lease, a driver's
    consuming pull, and terminate."""

    def test_refcounts_mirror_entries_through_commit_consume_delete(self):
        cloud = Cloud.fresh(seed=5, profile=ibm_us_east(deterministic=True))
        relay = relay_ready(cloud.vms, "bx2-2x8")
        driver = relay.client()
        worker = relay.client(attempt_id="act-1")
        same, other = b"s" * 64, b"t" * 64

        def scenario():
            yield driver.mpush([("a", same), ("b", same), ("c", other)])
            assert relay.content.refcounts() == {
                sha256_hex(same): 2, sha256_hex(other): 1,
            }
            assert_residency_mirrors_entries(relay)
            yield driver.mpush([("b", other)])  # replaces b's value
            assert_residency_mirrors_entries(relay)
            yield worker.mpull(["a"], consume=True)
            assert_residency_mirrors_entries(relay)  # leased, still resident
            relay.commit_attempt("act-1")
            assert_residency_mirrors_entries(relay)
            assert not relay.content.resident(sha256_hex(same))
            yield driver.mpull(["c"], consume=True)
            assert_residency_mirrors_entries(relay)
            assert relay.content.refcounts() == {sha256_hex(other): 1}

        cloud.sim.run_process(scenario())
        relay.terminate()
        assert relay.content.refcounts() == {}
        # The content log outlives the relay's memory.
        assert [key for key, _sha, _logical in relay.cas_entries("")] == [
            "a", "b", "c", "b",
        ]


def run_cold_warm(substrate, payload, *, seed=7):
    """The same sort twice on one cloud (distinct output prefixes).

    Returns ``(cold_runs, warm_runs, warm_dedup_bytes)``; the report is
    a per-sort delta, so the reused operator's second report covers the
    warm run alone.
    """
    cloud, operator = sort_region(substrate, seed=seed)

    def driver():
        yield cloud.store.put("data", "input.bin", payload)
        cold = yield operator.sort(
            "data", "input.bin", workers=2, out_prefix="cold"
        )
        warm = yield operator.sort(
            "data", "input.bin", workers=2, out_prefix="warm"
        )
        return cold, warm

    cold, warm = cloud.sim.run_process(driver())
    cold_runs = [cloud.store.peek("data", run.key) for run in cold.runs]
    warm_runs = [cloud.store.peek("data", run.key) for run in warm.runs]
    return cold_runs, warm_runs, operator.report.extra.get("dedup_bytes", 0)


class TestSortDedupParity:
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_warm_rerun_dedups_at_byte_parity(self, substrate):
        cold, warm, warm_dedup = run_cold_warm(substrate, make_dup_payload(pairs=200))
        assert warm_dedup > 0
        # Dedup changes billing/wire accounting, never bytes.
        assert cold == warm

    def test_dedup_counter_published(self):
        from repro.obs.metrics import reset_registry, registry

        reset_registry()
        run_cold_warm("objectstore", make_dup_payload(pairs=100))
        counter = registry().get("repro_dedup_bytes_total")
        assert counter is not None
        samples = dict(counter.samples())
        total = sum(
            value
            for key, value in samples.items()
            if ("substrate", "objectstore") in key
        )
        assert total > 0


class TestPrefixIsolation:
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_a_manifest_takes_in_no_sibling_prefix(self, substrate):
        """A sort under ``runs/a`` after one under ``runs/ab`` in the same
        store logs exactly the chunks it logs alone."""
        payload = make_dup_payload(pairs=100)

        def manifests(prefixes):
            cloud, operator = sort_region(substrate)
            made = []

            def driver():
                yield cloud.store.put("data", "input.bin", payload)
                for prefix in prefixes:
                    yield operator.sort(
                        "data", "input.bin", workers=2, out_prefix=prefix
                    )
                    made.append(operator.run_manifest)

            cloud.sim.run_process(driver())
            return made

        (alone,) = manifests(["runs/a"])
        _sibling, after = manifests(["runs/ab", "runs/a"])
        assert alone.chunks
        assert all(entry["key"].startswith("runs/a/") for entry in after.chunks)
        assert after.chunks == alone.chunks


class TestRunManifest:
    def test_chain_links_cover_prior_sections(self):
        chain = derive_chain({"k": 1}, {"d": 2}, [], [])
        assert chain["h0"] == content_hash({"k": 1})
        assert chain["h1"] == content_hash([chain["h0"], {"d": 2}])
        assert chain["manifest"] == content_hash(
            [chain["h0"], chain["h1"], chain["h2"], chain["h3"]]
        )

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_sort_emits_verifiable_manifest(self, substrate):
        payload = make_dup_payload(pairs=150)
        runs, operator, cloud, result = run_sort(substrate, payload)
        manifest = operator.run_manifest
        assert manifest is not None
        assert verify_manifest(manifest) == []
        assert verify_manifest(manifest, store=cloud.store) == []
        assert manifest.chunks, "exchange chunks must be content-logged"
        assert [entry["key"] for entry in manifest.outputs] == [
            run.key for run in result.runs
        ]
        for entry, data in zip(manifest.outputs, runs):
            assert entry["sha256"] == sha256_hex(data)

    def test_tampered_sections_fail_loudly(self):
        _runs, operator, cloud, _result = run_sort(
            "objectstore", make_dup_payload(pairs=100)
        )
        manifest = operator.run_manifest
        payload = manifest.to_dict()
        payload["chunks"][0]["sha256"] = "0" * 64
        problems = verify_manifest(payload)
        assert any("h2" in problem for problem in problems)

        payload = manifest.to_dict()
        payload["outputs"][0]["sha256"] = "f" * 64
        problems = verify_manifest(payload)
        assert any("h3" in problem for problem in problems)

        payload = manifest.to_dict()
        payload["chain"]["manifest"] = "0" * 64
        assert verify_manifest(payload)

    def test_mutated_stored_artifact_fails_store_verify(self):
        _runs, operator, cloud, result = run_sort(
            "objectstore", make_dup_payload(pairs=100)
        )
        manifest = operator.run_manifest
        victim = result.runs[0]

        def tamper():
            yield cloud.store.put(victim.bucket, victim.key, b"\x00" * 64)

        cloud.sim.run_process(tamper())
        # Offline chain still verifies — the manifest was not touched...
        assert verify_manifest(manifest) == []
        # ...but the store-backed check catches the mutated artifact.
        problems = verify_manifest(manifest, store=cloud.store)
        assert any("tampered" in problem for problem in problems)

    def test_json_round_trip_and_cli(self, tmp_path, capsys):
        from repro.experiments.cli import main

        _runs, operator, _cloud, _result = run_sort(
            "objectstore", make_dup_payload(pairs=100)
        )
        manifest = operator.run_manifest
        assert verify_manifest(json.loads(manifest.to_json())) == []

        path = tmp_path / "manifest.json"
        path.write_text(manifest.to_json(), encoding="utf-8")
        assert verify_manifest_file(str(path)) == []
        assert main(["replay-verify", "--manifest", str(path)]) == 0
        assert "PASS" in capsys.readouterr().out

        tampered = manifest.to_dict()
        tampered["decision"]["substrate"] = "tampered"
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(tampered), encoding="utf-8")
        assert main(["replay-verify", "--manifest", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "content, reason",
        [
            (None, "cannot read manifest"),
            ("{not json", "not a JSON manifest"),
            (b"\xff\xfe", "not a JSON manifest"),
            ("[1, 2]", "not a manifest"),
            ('{"inputs": 1, "decision": {}, "chunks": [], "outputs": [], "chain": {}}',
             "section inputs is not a JSON object"),
            ('{"inputs": {}, "decision": {}, "chunks": [], "outputs": [], "chain": []}',
             "section chain is not a JSON object"),
            ('{"inputs": {}, "decision": {}, "chunks": 1, "outputs": [], "chain": {}}',
             "section chunks is not a JSON array"),
        ],
        ids=["missing", "not-json", "not-utf8", "not-an-object", "inputs-not-an-object",
             "chain-not-an-object", "chunks-not-an-array"],
    )
    def test_cli_fails_an_unreadable_manifest_without_a_traceback(
        self, tmp_path, capsys, content, reason
    ):
        from repro.experiments.cli import main

        path = tmp_path / "manifest.json"
        if isinstance(content, str):
            path.write_text(content, encoding="utf-8")
        elif content is not None:
            path.write_bytes(content)
        assert main(["replay-verify", "--manifest", str(path)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"FAIL: {path}"
        assert out[1].strip().startswith(reason)


STREAM = StreamConfig(chunk_bytes=4096.0, buffer_bytes=8192.0, poll_interval_s=0.05)


def counting(monkeypatch, name):
    """Patch ``hashlib.<name>`` to record the bytes of every call."""
    hashed = []
    real = getattr(hashlib, name)

    def count(data=b"", **kwargs):
        hashed.append(bytes(data))
        return real(data, **kwargs)

    monkeypatch.setattr(hashlib, name, count)
    return hashed


class TestHashOnce:
    """Each stored byte is sha256-hashed once, and a payload staged into
    many regions is md5-hashed once per process."""

    def test_a_sort_hashes_each_output_run_once(self, monkeypatch):
        """The dedup PUT's digest is the manifest's output address."""
        hashed = counting(monkeypatch, "sha256")
        # Distinct keys in scrambled order: no exchange object holds a
        # run's bytes.
        payload = b"".join(
            (index * 2654435761 % 2**32).to_bytes(8, "big") + bytes(8)
            for index in range(4000)
        )
        runs, operator, _cloud, result = run_sort(
            "objectstore", payload, workers=8
        )
        assert len(result.runs) == 8
        assert operator.run_manifest is not None
        for data in runs:
            assert hashed.count(data) == 1

    @pytest.mark.parametrize("stream", [None, STREAM], ids=["staged", "streaming"])
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_manifest_outputs_address_the_bytes_at_rest(self, substrate, stream):
        runs, operator, cloud, result = run_sort(
            substrate, make_dup_payload(pairs=150), stream=stream
        )
        outputs = operator.run_manifest.outputs
        assert [entry["key"] for entry in outputs] == [run.key for run in result.runs]
        for entry, data in zip(outputs, runs, strict=True):
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()
        assert verify_manifest(operator.run_manifest, store=cloud.store) == []

    def test_a_plain_put_is_hashed_on_first_address_read_only(self, monkeypatch):
        cloud = Cloud.fresh(seed=3, profile=ibm_us_east(deterministic=True))
        cloud.store.ensure_bucket("data")

        def stage():
            yield cloud.store.put("data", "k", b"plain bytes")

        cloud.sim.run_process(stage())
        hashed = counting(monkeypatch, "sha256")
        first = cloud.store.content_address("data", "k")
        assert first == cloud.store.content_address("data", "k")
        assert first == sha256_hex(b"plain bytes")
        assert hashed == [b"plain bytes", b"plain bytes"]  # the store once, the check once

    @staticmethod
    def staged_etags(payloads, regions=2):
        """Stage every payload into ``regions`` fresh regions and read
        each object's ETag; returns the ETags, region by region."""
        etags = []
        for seed in range(regions):
            cloud = Cloud.fresh(seed=seed, profile=ibm_us_east(deterministic=True))
            cloud.store.ensure_bucket("data")

            def stage():
                for index, payload in enumerate(payloads):
                    meta = yield cloud.store.put("data", f"input{index}", payload)
                    etags.append(meta.etag)

            cloud.sim.run_process(stage())
        return etags

    def test_one_payload_in_two_regions_is_md5_hashed_once(self, monkeypatch):
        compute_etag.cache_clear()
        hashed = counting(monkeypatch, "md5")
        payload = make_dup_payload(pairs=64)
        etags = self.staged_etags([payload])
        assert etags == [hashlib.new("md5", payload).hexdigest()] * 2
        assert hashed == [payload]

    def test_distinct_payloads_are_md5_hashed_once_each(self, monkeypatch):
        compute_etag.cache_clear()
        hashed = counting(monkeypatch, "md5")
        payloads = [make_dup_payload(pairs=64), make_dup_payload(pairs=65)]
        etags = self.staged_etags(payloads)
        assert etags[:2] == etags[2:] and etags[0] != etags[1]
        assert hashed == payloads

    def test_the_etag_memo_is_bounded(self):
        compute_etag.cache_clear()
        bound = compute_etag.cache_info().maxsize
        assert isinstance(bound, int) and bound > 0
        for index in range(bound + 3):
            compute_etag(index.to_bytes(4, "big"))
        assert compute_etag.cache_info().currsize == bound


class TestLineageCache:
    @staticmethod
    def _run_auto(cloud, config, sort_params, name):
        from repro.workflows import WorkflowEngine
        from repro.workflows.dag import StageSpec, WorkflowDag

        dag = WorkflowDag(
            name,
            [
                StageSpec("ingest", "dataset_ref",
                          params={"key": "input/methylome.bed"}),
                StageSpec("sort", "auto_sort", after=("ingest",),
                          params=sort_params),
            ],
            bucket="pipeline",
        )
        engine = WorkflowEngine(cloud, dag)
        engine.workload = config.workload
        return engine.execute()

    @staticmethod
    def _fresh(config):
        from repro.core import stage_input
        from repro.sim import Simulator

        cloud = Cloud(Simulator(seed=7), config.make_profile())
        stage_input(cloud, config, "pipeline", "input/methylome.bed")
        return cloud

    def test_warm_rerun_hits_and_is_cheaper(self):
        from repro.core import ExperimentConfig

        config = ExperimentConfig(logical_scale=4096.0)
        cloud = self._fresh(config)
        params = {"workers": 4, "memory_mb": 2048}

        cold_marker = cloud.meter.snapshot()
        cold_start = cloud.sim.now
        cold = self._run_auto(cloud, config, params, "lineage-cold")
        cold_cost = cloud.meter.since(cold_marker).total_usd
        cold_latency = cloud.sim.now - cold_start
        assert cold.artifacts["sort"]["lineage"] == "miss"
        assert "lineage_key" in cold.artifacts["sort"]

        warm_marker = cloud.meter.snapshot()
        warm_start = cloud.sim.now
        warm = self._run_auto(cloud, config, params, "lineage-warm")
        warm_cost = cloud.meter.since(warm_marker).total_usd
        warm_latency = cloud.sim.now - warm_start

        artifact = warm.artifacts["sort"]
        assert artifact["lineage"] == "hit"
        assert artifact["lineage_hits"] == 1
        assert artifact["runs"] == cold.artifacts["sort"]["runs"]
        # The hit is priced at control-plane cost: one HEAD, no sort.
        assert warm_cost < cold_cost / 10
        assert warm_latency < cold_latency / 10

    def test_changed_plan_misses(self):
        from repro.core import ExperimentConfig

        config = ExperimentConfig(logical_scale=4096.0)
        cloud = self._fresh(config)
        first = self._run_auto(
            cloud, config, {"workers": 4, "memory_mb": 2048}, "plan-a"
        )
        second = self._run_auto(
            cloud, config, {"workers": 3, "memory_mb": 2048}, "plan-b"
        )
        assert first.artifacts["sort"]["lineage"] == "miss"
        assert second.artifacts["sort"]["lineage"] == "miss"
        assert len(lineage_cache_for(cloud.store)) == 2

    def test_deleted_output_degrades_to_miss(self):
        from repro.core import ExperimentConfig

        config = ExperimentConfig(logical_scale=4096.0)
        cloud = self._fresh(config)
        params = {"workers": 4, "memory_mb": 2048}
        cold = self._run_auto(cloud, config, params, "degrade-cold")
        victim = cold.artifacts["sort"]["runs"][0]

        def wipe():
            yield BoundStorage(cloud.store, None).delete(victim["bucket"], victim["key"])

        cloud.sim.run_process(wipe())
        rerun = self._run_auto(cloud, config, params, "degrade-rerun")
        assert rerun.artifacts["sort"]["lineage"] == "miss"

    def test_overwritten_output_degrades_to_miss(self):
        from repro.core import ExperimentConfig

        config = ExperimentConfig(logical_scale=4096.0)
        cloud = self._fresh(config)
        params = {"workers": 4, "memory_mb": 2048}
        cold = self._run_auto(cloud, config, params, "overwrite-cold")
        victim = cold.artifacts["sort"]["runs"][0]
        sorted_run = cloud.store.peek(victim["bucket"], victim["key"])
        stale = b"not the sorted run\n"

        def overwrite():
            yield BoundStorage(cloud.store, None).put(
                victim["bucket"], victim["key"], stale
            )

        cloud.sim.run_process(overwrite())
        rerun = self._run_auto(cloud, config, params, "overwrite-rerun")
        assert rerun.artifacts["sort"]["lineage"] == "miss"
        # The miss sorted again: the run at rest is the sorted one.
        assert cloud.store.peek(victim["bucket"], victim["key"]) == sorted_run
        warm = self._run_auto(cloud, config, params, "overwrite-warm")
        assert warm.artifacts["sort"]["lineage"] == "hit"

    def test_fingerprint_is_stable_data(self):
        fingerprint = LineageCache.fingerprint(
            {"bucket": "b", "key": "k", "etag": "e", "logical_size": 1.0},
            {"workers": 4},
        )
        assert len(fingerprint) == 64
        assert fingerprint == LineageCache.fingerprint(
            {"logical_size": 1.0, "etag": "e", "key": "k", "bucket": "b"},
            {"workers": 4},
        )
