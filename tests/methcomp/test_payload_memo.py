"""The memoized input payload: one generation per argument set, same bytes as ever."""

import dataclasses
import hashlib
import random

import pytest

from repro.cloud.environment import Cloud
from repro.core import ExperimentConfig
from repro.core.experiment import dataset_payload, stage_input
from repro.errors import CodecError
from repro.methcomp.bed import MethylationRecord, is_sorted, parse_buffer, serialize_records
from repro.methcomp.datagen import (
    MethylomeGenerator,
    MethylomeProfile,
    _shuffle,
    generate_skewed_bed_bytes,
    methylome_payload,
)
from repro.sim import Simulator

#: (real_bytes, seed, distribution, zipf_s, distinct_keys, sorted_output)
BASE = (20_000, 3, "zipf", 1.2, 64, False)

#: sha256 of ``dataset_payload(ExperimentConfig(logical_scale=1024, seed=...))``
#: (``real_bytes=3670016``, the ledger's ``table1`` input) at commit ace419a,
#: before the memo and the column serializer.
PARENT_SHA256 = {
    2021: "9bcca243fc2188d7cf4d0900982b92dd53598685bd8f094a6356dee0a807bf9d",
    7: "7e1509fc4cf03cc5c55036773dfa67779de07e51e67c3b0879fcdab8cbdd4c01",
    47: "4886a6cd1096f0c794ba6ddcb42dc4d0baf6899156e9beeae5d11ed8e3c0c90d",
}

#: Pinned at commit fab3573, when the generators still built a
#: ``MethylationRecord`` per line and serialized the list afterwards.
#: The ledger's ``dataplane`` input (``logical_scale=256``, seed 2021):
DATAPLANE_SHA256 = "4338dbdaf640eb605613efc26ef988c0f83dc1db2079c46a9fbd79ffd86523ec"
#: ``methylome_payload(3_670_016, 2021, "uniform", 1.2, 64, True)``:
SORTED_SHA256 = "566c1f1525c2b475524b082f776bd0857e9f3781977bd910c1eb30952dabdbd9"
#: ``methylome_payload(400_000, 2021, law, 1.2, 64, False)``:
SKEWED_SHA256 = {
    "zipf": "cb005ff4f060ebe557d49788a0a311fe07929a766f26386c3bf606edb4deab2e",
    "heavy-dup": "72b79b725a830da7dda778032d226ec3f18c9dcf616bc487282feb24173e2ba4",
    "sorted-runs": "8e019e0f582ab6dc1eb0d961b0de7fa6a0f4967cf4d91a05ad3626afdd081a84",
    "late-hot": "0eb59a200f4bec599cd3208f121d78124bfba01a8f80250559469c4ed7360f48",
}
#: ``sorted_output`` → (sha256 of ``generate_bed_bytes(400_000)`` at seed
#: 2021, the generator's next ``random()`` afterwards).
NEXT_DRAW = {
    False: ("782feda89fdfd6ba9bf230ff95a350ce302e2e6ec5b5afc33b2e59cd38fa605d",
            0.8591795027342626),
    True: ("ff37ffca62862630e94efb9dd84e45e8180bea4171c35685cb2ca4c2d029daa1",
           0.9783668096770559),
}

#: Draw-order cases off the default path, pinned before the draws were
#: spelled out inline: case → (sha256 of the payload, sha256 of
#: ``repr(rng.getstate())`` afterwards, which holds ``gauss_next``).
#: Each generates ``generate_bed(20_000)`` at seed 2021, except
#: ``shuffled-records``, the serialized ``shuffled_records(5_000)``.
DRAW_ORDER_SHA256 = {
    "island_start_prob=0.5": (
        "3f5b66b95585774d529f815ca596427c00d89c829b908870b9cca1803bac744d",
        "1340bb66007866ff21dc2429fc7e0deae13654e13726c39ac8e79aaba8ee29f7",
    ),
    "domain_persistence=0.5": (
        "5497cfe1c6b2d9cc13bd2a41bb02bcd6e482054209086d3d06fcd7eb2db2e271",
        "952cbd5be68fbf0c3442a4edf40dc61b0146e6ea8d4f4d7dd0aa33ca3c798da1",
    ),
    "pair_fraction=0.0": (
        "255288e281280ad74f5edfbad06bf790679ec4a73dffc0ea4faba59db1f53db2",
        "e84811159ec42bc61b0622496551dd601ab7b5776e27eeb1b5810ce4bcdae10e",
    ),
    "after-one-gauss": (
        "1d1734025b1f63f7e918e9490d8e5e778476676560a5aa550ff304f43e1cd9f6",
        "8e422023c3044d7c227d1162aa2caa763a35332463a9f0f7310ee15ee139d260",
    ),
    "shuffled-records": (
        "d92b06f4299305a93a55b08c4eca042f62f8af0abac05e349c8b3eaff457a090",
        "60b1d1a943f7391f427988518aa1da15a70039f92342b1ed62be764899f2d232",
    ),
}


@pytest.fixture(autouse=True)
def cold_cache():
    methylome_payload.cache_clear()
    yield
    methylome_payload.cache_clear()


class TestMemo:
    def test_equal_arguments_return_the_same_object(self):
        first = methylome_payload(*BASE)
        assert isinstance(first, bytes)
        assert methylome_payload(*BASE) is first
        assert methylome_payload.cache_info().misses == 1

    @pytest.mark.parametrize(
        "field,value",
        [(0, 20_062), (1, 4), (2, "heavy-dup"), (3, 1.5), (4, 8), (5, True)],
        ids=["real_bytes", "seed", "distribution", "zipf_s", "distinct_keys", "sorted"],
    )
    def test_every_key_field_is_part_of_the_key(self, field, value):
        first = methylome_payload(*BASE)
        changed = list(BASE)
        changed[field] = value
        other = methylome_payload(*changed)
        assert other is not first
        assert methylome_payload.cache_info().misses == 2
        assert methylome_payload(*BASE) is first

    def test_the_cache_is_bounded(self):
        bound = methylome_payload.cache_info().maxsize
        assert bound is not None and bound <= 16
        first = methylome_payload(2_000, 0, "uniform", 1.2, 64, False)
        for seed in range(1, bound + 1):
            methylome_payload(2_000, seed, "uniform", 1.2, 64, False)
        assert methylome_payload.cache_info().currsize == bound
        again = methylome_payload(2_000, 0, "uniform", 1.2, 64, False)
        assert again == first and again is not first  # evicted, generated afresh

    def test_it_is_the_generators_output(self):
        assert methylome_payload(9_000, 5, "uniform", 1.2, 64, False) == (
            MethylomeGenerator(seed=5).generate_bed_bytes(9_000)
        )
        assert methylome_payload(9_000, 5, "uniform", 1.2, 64, True) == (
            MethylomeGenerator(seed=5).generate_bed_bytes(9_000, sorted_output=True)
        )
        assert methylome_payload(9_000, 5, "late-hot", 1.4, 32, False) == (
            generate_skewed_bed_bytes(
                9_000, seed=5, distribution="late-hot", zipf_s=1.4, distinct_keys=32
            )
        )

    @pytest.mark.parametrize("seed", sorted(PARENT_SHA256))
    def test_table1_payload_is_bit_identical_to_the_parents(self, seed):
        config = ExperimentConfig(logical_scale=1024.0, seed=seed)
        assert config.real_bytes == 3_670_016
        payload = dataset_payload(config)
        assert hashlib.sha256(payload).hexdigest() == PARENT_SHA256[seed]

    def test_dataplane_payload(self):
        config = ExperimentConfig(logical_scale=256.0, seed=2021)
        assert config.real_bytes == 14_680_064
        assert hashlib.sha256(dataset_payload(config)).hexdigest() == DATAPLANE_SHA256

    def test_sorted_payload(self):
        payload = methylome_payload(3_670_016, 2021, "uniform", 1.2, 64, True)
        assert hashlib.sha256(payload).hexdigest() == SORTED_SHA256

    @pytest.mark.parametrize("law", sorted(SKEWED_SHA256))
    def test_skewed_payloads(self, law):
        payload = methylome_payload(400_000, 2021, law, 1.2, 64, False)
        assert hashlib.sha256(payload).hexdigest() == SKEWED_SHA256[law]

    @pytest.mark.parametrize("sorted_output", sorted(NEXT_DRAW))
    def test_the_generator_is_left_in_the_same_state(self, sorted_output):
        """Same draws in the same order: the next one is the same too."""
        generator = MethylomeGenerator(seed=2021)
        payload = generator.generate_bed_bytes(400_000, sorted_output=sorted_output)
        digest, next_draw = NEXT_DRAW[sorted_output]
        assert hashlib.sha256(payload).hexdigest() == digest
        assert generator._rng.random() == next_draw

    @pytest.mark.parametrize("seed", (2021, 7))
    def test_records_are_the_parse_of_the_sorted_payload(self, seed):
        records = MethylomeGenerator(seed=seed).records(4_000)
        payload = MethylomeGenerator(seed=seed).generate_bed(4_000, sorted_output=True)
        assert parse_buffer(payload) == records
        assert is_sorted(records)
        shuffled = MethylomeGenerator(seed=seed).shuffled_records(4_000)
        assert serialize_records(shuffled) == MethylomeGenerator(seed=seed).generate_bed(4_000)
        assert sorted(shuffled, key=MethylationRecord.sort_key) == records



class TestDrawOrder:
    """Profiles and rng states the ledger's payloads never reach."""

    @staticmethod
    def generator(case: str) -> MethylomeGenerator:
        if case == "after-one-gauss":
            generator = MethylomeGenerator(seed=2021)
            generator._rng.gauss()  # leaves a second value in ``gauss_next``
            return generator
        if case == "shuffled-records":
            return MethylomeGenerator(seed=2021)
        field, value = case.split("=")
        return MethylomeGenerator(
            seed=2021, profile=MethylomeProfile(**{field: float(value)})
        )

    @pytest.mark.parametrize("case", sorted(DRAW_ORDER_SHA256))
    def test_payload_and_rng_state(self, case):
        generator = self.generator(case)
        if case == "shuffled-records":
            payload = serialize_records(generator.shuffled_records(5_000))
        else:
            payload = generator.generate_bed(20_000)
        state = repr(generator._rng.getstate()).encode()
        assert (
            hashlib.sha256(payload).hexdigest(),
            hashlib.sha256(state).hexdigest(),
        ) == DRAW_ORDER_SHA256[case]



#: 0-3, then every power of two up to 70,000 and its two neighbours: the
#: lengths at which the draw's bit length changes.
SHUFFLE_LENGTHS = sorted(
    {0, 1, 2, 3} | {(1 << k) + d for k in range(1, 17) for d in (-1, 0, 1)}
)


class TestShuffle:
    """``_shuffle`` is ``random.Random.shuffle``, swap for swap and draw for draw."""

    @pytest.mark.parametrize("seed", (0, 2021, 7331))
    def test_same_list_and_rng_state_as_cpython(self, seed):
        for length in SHUFFLE_LENGTHS:
            expected, actual = list(range(length)), list(range(length))
            reference, rng = random.Random(seed), random.Random(seed)
            reference.shuffle(expected)
            _shuffle(rng, actual)
            assert actual == expected, length
            assert rng.getstate() == reference.getstate(), length


class TestValidation:
    """No record object is built, so the finished payload is what gets checked."""

    def test_a_profile_that_walks_below_zero_is_refused(self):
        """As ``MethylationRecord`` refused it, with the same words."""
        backwards = MethylomeProfile(mean_gap=-4000.0)
        with pytest.raises(CodecError, match=r"bad interval: \[-\d+, -\d+\)"):
            MethylomeGenerator(seed=1, profile=backwards).generate_bed(500)
        with pytest.raises(CodecError, match=r"bad interval: \[-\d+, -\d+\)"):
            MethylomeGenerator(seed=1, profile=backwards).records(500)

    def test_every_block_is_checked(self, monkeypatch):
        """Blocks are whole lines, cover the payload, and stay under the bound."""
        from repro.methcomp import datagen

        seen = []
        monkeypatch.setattr(datagen, "_VALIDATION_BLOCK_BYTES", 10_000)
        monkeypatch.setattr(datagen, "parse_columns", seen.append)
        payload = MethylomeGenerator(seed=3).generate_bed(2_000)
        assert b"".join(seen) == payload
        assert len(seen) > 10
        assert all(block.endswith(b"\n") and len(block) <= 10_000 for block in seen)
        seen.clear()
        skewed = generate_skewed_bed_bytes(40_000, seed=3)
        assert b"".join(seen) == skewed and len(seen) > 3

    def test_no_record_object_is_built(self, monkeypatch):
        from repro.methcomp import bed

        def refuse(self):
            raise AssertionError("a MethylationRecord was constructed")

        monkeypatch.setattr(bed.MethylationRecord, "__post_init__", refuse)
        assert MethylomeGenerator(seed=3).generate_bed(300).count(b"\n") == 300
        assert generate_skewed_bed_bytes(20_000, seed=3).count(b"\n") == 322


class TestCallers:
    """Every pipeline input is ``dataset_payload``'s one memoized object."""

    def stage_payload(self, config: ExperimentConfig) -> bytes:
        """Stage ``config``'s input the way every pipeline does; the bytes stored."""
        cloud = Cloud(Simulator(seed=1), config.make_profile())
        stage_input(cloud, config, "pipeline", "gen.bed")
        return cloud.store.peek("pipeline", "gen.bed")

    def test_stage_then_experiment_generate_once(self):
        config = ExperimentConfig(size_gb=0.05, logical_scale=4096.0, seed=11)
        staged = self.stage_payload(config)
        assert methylome_payload.cache_info().misses == 1
        assert dataset_payload(config) == staged
        info = methylome_payload.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_skewed_stage_and_experiment_agree(self):
        config = dataclasses.replace(
            ExperimentConfig(size_gb=0.05, logical_scale=4096.0, seed=11),
            key_distribution="zipf",
            zipf_s=1.3,
            skew_distinct_keys=16,
        )
        staged = self.stage_payload(config)
        assert dataset_payload(config) == staged
        assert methylome_payload.cache_info().misses == 1
        uniform = dataclasses.replace(config, key_distribution="uniform")
        assert dataset_payload(uniform) != staged

    def test_repeated_pipeline_inputs_are_one_object(self):
        config = ExperimentConfig(size_gb=0.05, logical_scale=4096.0, seed=12)
        assert dataset_payload(config) is dataset_payload(dataclasses.replace(config))
