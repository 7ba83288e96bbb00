"""Synthetic whole-genome bisulfite-sequencing (WGBS) methylome generator.

Substitute for ENCFF988BSW (the paper's 3.5 GB input), which we cannot
download.  The generator reproduces the statistical structure METHCOMP's
compression gain comes from:

* **CpG positions** cluster: long stretches of ~100 bp spacing broken by
  dense CpG islands — so position *deltas* are small and highly skewed;
* **methylation levels** are bimodal: most sites are either heavily
  methylated (~90 %) or nearly unmethylated (~5 %) — so an adaptive
  entropy coder squeezes the ``pct_meth`` column hard;
* **coverage** follows an overdispersed (negative-binomial-like) count
  distribution around a sequencing depth of ~25x.

Records are emitted *shuffled* (deterministically): a raw pipeline input
is not in genomic order, which is exactly why the paper's first stage is
a sort.

**The draw order is the payload.**  A payload is a pure function of
``(seed, count)`` only because each generator makes the same
``random.Random`` draws in the same order every time: per chromosome
``randrange``, ``random``, ``betavariate``; per site the island draws,
the domain draw (and at a switch ``random`` then ``betavariate``), the
methylation ``gauss``, the coverage ``gauss``, the pairing ``random``
and for a pair two more ``gauss`` — ``gauss`` keeps its second value for
the next call, so even a skipped one shifts everything after it — and
last one ``shuffle`` of a list as long as the record count.
:meth:`MethylomeGenerator.columns` spells its per-site draws out rather
than calling them: the ``expovariate`` and ``gauss`` arithmetic of
CPython 3.11's ``random.py`` over a bound ``random()``, with
``gauss_next`` carried in a local and written back.  Every shuffle is
:func:`_shuffle`, the same swaps as ``random.Random.shuffle`` (held to
it by ``TestShuffle``).  Every staged
input, its sha256 in a run manifest, and so every simulated byte
downstream hangs off that sequence (pinned in
``tests/methcomp/test_payload_memo.py``, off the default profile and
with the rng state afterwards too): an edit here may change how a draw
is *stored*, never which draw is made or when, and a Python whose
``random.py`` computes these differently fails those pins.

No object is built per record: the generators fill six column lists,
the lines are formatted from those in one pass, and what
:class:`~repro.methcomp.bed.MethylationRecord` would have checked per
record the array parser checks on the finished payload.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import typing as t
from math import cos as _cos, log as _log, pi as _pi, sin as _sin, sqrt as _sqrt

from repro.methcomp.bed import (
    CHROMOSOMES,
    BedColumns,
    MethylationRecord,
    column_lines,
    parse_columns,
    records_of,
)
from repro.shuffle.skew import SkewSpec, skewed_keys

#: Relative chromosome lengths (hg38-proportioned, arbitrary units).
_CHROM_WEIGHTS: dict[str, float] = {
    **{f"chr{i}": 25.0 - i for i in range(1, 23)},
    "chrX": 16.0,
    "chrY": 6.0,
    "chrM": 0.2,
}


@dataclasses.dataclass(slots=True)
class MethylomeProfile:
    """Tunable statistics of the synthetic methylome."""

    #: Mean gap between CpG sites outside islands (bp).
    mean_gap: float = 110.0
    #: Mean gap inside CpG islands (bp).
    island_gap: float = 9.0
    #: Probability that a site starts a CpG island.
    island_start_prob: float = 0.004
    #: Mean number of sites in an island once started.
    island_length: float = 40.0
    #: Probability a site is in the "methylated" mode.
    methylated_fraction: float = 0.72
    #: Beta parameters of the methylated mode (high levels).
    methylated_beta: tuple[float, float] = (12.0, 1.6)
    #: Beta parameters of the unmethylated mode (low levels).
    unmethylated_beta: tuple[float, float] = (1.4, 14.0)
    #: Mean read depth.  Coverage is locally smooth: sequencing reads
    #: span ~150 bp, so neighbouring CpG sites share reads and depth
    #: follows an AR(1) process along the genome rather than being iid.
    coverage_mean: float = 18.0
    #: AR(1) persistence of coverage between neighbouring sites.
    coverage_persistence: float = 0.92
    #: Std-dev of the AR(1) coverage innovation.
    coverage_innovation: float = 1.8
    #: Probability of staying in the current methylation domain per site.
    #: Real methylomes are organised in long domains of consistent
    #: methylation; persistence creates them.
    domain_persistence: float = 0.995
    #: Std-dev of per-site methylation noise around the domain level.
    domain_meth_jitter: float = 3.0
    #: Probability a CpG site is observed on *both* strands.  Bisulfite
    #: sequencing reads the C of a CpG on the + strand and the G's
    #: complement on the - strand one base over, so real bedMethyl files
    #: are dominated by (+ at p, - at p+1) record pairs with correlated
    #: coverage and methylation — structure the codec exploits.
    pair_fraction: float = 0.85
    #: Std-dev of the coverage difference within a strand pair.
    pair_coverage_jitter: float = 1.5
    #: Std-dev of the methylation-percent difference within a pair.
    pair_meth_jitter: float = 2.0


#: ``random.py``'s ``TWOPI``, the Box-Muller angle scale of ``gauss``.
_TWOPI = 2.0 * _pi

#: Average serialized 11-column bedMethyl line length (bytes).
APPROX_LINE_BYTES = 62


def _shuffle(rng: random.Random, x: list) -> None:
    """``rng.shuffle(x)``: the same swaps from the same ``getrandbits`` draws.

    CPython's Fisher-Yates with ``_randbelow_with_getrandbits`` inlined:
    for ``i`` from the end down to 1, ``x[i]`` swaps with ``x[j]``, where
    ``j`` is the first ``getrandbits(k)`` draw below ``i + 1`` and ``k``
    is the bit length of ``i + 1``.
    """
    getrandbits = rng.getrandbits
    for i in reversed(range(1, len(x))):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def estimate_record_count(target_bytes: int) -> int:
    """Roughly how many records serialize to ``target_bytes``."""
    return max(1, target_bytes // APPROX_LINE_BYTES)


#: Most payload bytes validated in one parse.  The parser's working set
#: is a dozen times its input: 1 MB blocks raised the ledger's
#: ``control`` peak RSS by 7 MB and whole-payload validation
#: ``dataplane``'s by 20 MB; at 256 kB neither moves, for 10 % more
#: time in a step that is a tenth of a generation.
_VALIDATION_BLOCK_BYTES = 1 << 18


def _validated(generate: t.Callable[..., bytes]) -> t.Callable[..., bytes]:
    """Check every line of the payload ``generate`` returns before handing it on.

    What :class:`~repro.methcomp.bed.MethylationRecord` would refuse
    record by record, the array parser refuses here, in blocks of whole
    lines and after ``generate``'s own lists are gone: the
    :class:`~repro.errors.CodecError` is the first bad line's (a profile
    with a negative gap can walk a position below zero, say).
    """

    @functools.wraps(generate)
    def checked(*args, **kwargs) -> bytes:
        payload = generate(*args, **kwargs)
        begin = 0
        while begin < len(payload):
            end = payload.rfind(b"\n", begin, begin + _VALIDATION_BLOCK_BYTES) + 1
            parse_columns(payload[begin:end])
            begin = end
        return payload

    return checked


class MethylomeGenerator:
    """Deterministic generator of synthetic bedMethyl records."""

    def __init__(self, seed: int = 0, profile: MethylomeProfile | None = None):
        self.profile = profile if profile is not None else MethylomeProfile()
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    def columns(self, count: int) -> BedColumns:
        """Generate ``count`` records in genomic order, as columns.

        The per-site draws are ``random.Random``'s own arithmetic spelled
        out (see the module docstring): ``expovariate(rate)`` is
        ``-log(1.0 - random()) / rate`` and ``gauss(mu, sigma)`` is
        ``mu + z * sigma`` with ``z`` the pending ``gauss_next`` or the
        first of a fresh Box-Muller pair, whose second value becomes the
        pending one (``0.0 + z * sigma`` keeps the ``mu +`` of a zero-mean
        draw, so each float is the one ``gauss`` returned).  ``randrange``
        and ``betavariate`` stay calls: they are drawn once per chromosome
        or domain switch and leave ``gauss_next`` alone, so the local copy
        of it stays valid.  The four ``gauss`` copies are the hot path:
        calling a bound ``rng.gauss`` instead makes this 1.4-1.6x slower.
        """
        profile = self.profile
        rng = self._rng
        random_ = rng.random
        weights = [_CHROM_WEIGHTS[chrom] for chrom in CHROMOSOMES]
        total_weight = sum(weights)
        allocations = [
            max(0, round(count * weight / total_weight)) for weight in weights
        ]
        # Fix rounding drift so the total is exact.
        drift = count - sum(allocations)
        allocations[0] += drift

        # ``expovariate`` divides by its rate, so the rates are divided by too.
        island_gap_rate = 1.0 / profile.island_gap
        island_length_rate = 1.0 / profile.island_length
        mean_gap_rate = 1.0 / profile.mean_gap
        island_start_prob = profile.island_start_prob
        domain_persistence = profile.domain_persistence
        methylated_fraction = profile.methylated_fraction
        meth_jitter = profile.domain_meth_jitter
        coverage_mean = profile.coverage_mean
        coverage_persistence = profile.coverage_persistence
        coverage_innovation = profile.coverage_innovation
        pair_fraction = profile.pair_fraction
        pair_coverage_jitter = profile.pair_coverage_jitter
        pair_meth_jitter = profile.pair_meth_jitter
        gauss_next = rng.gauss_next

        chroms: list[int] = []
        starts: list[int] = []
        strands: list[bool] = []
        coverages: list[int] = []
        pcts: list[int] = []
        add_start = starts.append
        add_strand = strands.append
        add_coverage = coverages.append
        add_pct = pcts.append
        for rank, allocation in enumerate(allocations):
            position = rng.randrange(10_000, 50_000)
            island_remaining = 0
            emitted = 0
            coverage_level = coverage_mean
            domain_methylated = random_() < methylated_fraction
            domain_level = self._domain_level(rng, domain_methylated)
            while emitted < allocation:
                if island_remaining > 0:
                    island_remaining -= 1
                    gap = 2 + int(-_log(1.0 - random_()) / island_gap_rate)
                else:
                    if random_() < island_start_prob:
                        island_remaining = 1 + int(
                            -_log(1.0 - random_()) / island_length_rate
                        )
                    gap = 2 + int(-_log(1.0 - random_()) / mean_gap_rate)
                position += gap

                # Methylation domains: persist, occasionally switch mode.
                if random_() > domain_persistence:
                    domain_methylated = random_() < methylated_fraction
                    domain_level = self._domain_level(rng, domain_methylated)
                z = gauss_next
                gauss_next = None
                if z is None:
                    x2pi = random_() * _TWOPI
                    g2rad = _sqrt(-2.0 * _log(1.0 - random_()))
                    z = _cos(x2pi) * g2rad
                    gauss_next = _sin(x2pi) * g2rad
                pct = round(domain_level + (0.0 + z * meth_jitter))
                pct = 0 if pct < 0 else 100 if pct > 100 else pct

                # Locally smooth coverage (AR(1) around the mean depth).
                z = gauss_next
                gauss_next = None
                if z is None:
                    x2pi = random_() * _TWOPI
                    g2rad = _sqrt(-2.0 * _log(1.0 - random_()))
                    z = _cos(x2pi) * g2rad
                    gauss_next = _sin(x2pi) * g2rad
                coverage_level = (
                    coverage_mean
                    + coverage_persistence * (coverage_level - coverage_mean)
                    + (0.0 + z * coverage_innovation)
                )
                coverage = round(coverage_level)
                if coverage < 1:
                    coverage = 1

                add_start(position)
                add_strand(False)
                add_coverage(coverage)
                add_pct(pct)
                emitted += 1
                if emitted < allocation and random_() < pair_fraction:
                    # Complementary-strand observation of the same CpG,
                    # one base over.
                    z = gauss_next
                    gauss_next = None
                    if z is None:
                        x2pi = random_() * _TWOPI
                        g2rad = _sqrt(-2.0 * _log(1.0 - random_()))
                        z = _cos(x2pi) * g2rad
                        gauss_next = _sin(x2pi) * g2rad
                    pair_coverage = coverage + round(0.0 + z * pair_coverage_jitter)
                    z = gauss_next
                    gauss_next = None
                    if z is None:
                        x2pi = random_() * _TWOPI
                        g2rad = _sqrt(-2.0 * _log(1.0 - random_()))
                        z = _cos(x2pi) * g2rad
                        gauss_next = _sin(x2pi) * g2rad
                    pair_pct = round(pct + (0.0 + z * pair_meth_jitter))
                    add_start(position + 1)
                    add_strand(True)
                    add_coverage(pair_coverage if pair_coverage > 1 else 1)
                    add_pct(0 if pair_pct < 0 else 100 if pair_pct > 100 else pair_pct)
                    emitted += 1
            chroms.extend([rank] * allocation)
        rng.gauss_next = gauss_next
        # A CpG dinucleotide: every interval is two bases wide.
        ends = [start + 2 for start in starts]
        return BedColumns(chroms, starts, ends, strands, coverages, pcts)

    def records(self, count: int) -> list[MethylationRecord]:
        """Generate ``count`` records in genomic order."""
        return records_of(self.columns(count))

    def _domain_level(self, rng: random.Random, methylated: bool) -> float:
        profile = self.profile
        alpha, beta = (
            profile.methylated_beta if methylated else profile.unmethylated_beta
        )
        return 100.0 * rng.betavariate(alpha, beta)

    # ------------------------------------------------------------------
    def shuffled_records(self, count: int) -> list[MethylationRecord]:
        """Generate ``count`` records in scrambled (pipeline-input) order."""
        records = self.records(count)
        _shuffle(self._rng, records)
        return records

    @_validated
    def generate_bed(self, count: int, sorted_output: bool = False) -> bytes:
        """Serialized bedMethyl payload of ``count`` records."""
        lines = column_lines(self.columns(count))
        if not sorted_output:
            # The permutation depends on the list's length alone, so the
            # lines land where the records they spell used to.
            _shuffle(self._rng, lines)
        return "".join(lines).encode("ascii")

    def generate_bed_bytes(
        self, target_bytes: int, sorted_output: bool = False
    ) -> bytes:
        """Payload of approximately ``target_bytes`` serialized bytes."""
        return self.generate_bed(
            estimate_record_count(target_bytes), sorted_output=sorted_output
        )


@_validated
def generate_skewed_bed_bytes(
    target_bytes: int,
    seed: int = 0,
    distribution: str = "zipf",
    zipf_s: float = 1.2,
    distinct_keys: int = 64,
    run_length: int = 256,
    late_hot_fraction: float = 0.25,
    late_hot_share: float = 0.8,
) -> bytes:
    """A bedMethyl payload whose *genomic keys* follow a skewed law.

    The uniform :class:`MethylomeGenerator` spreads records across the
    genome in proportion to chromosome length, so range boundaries land
    near-equal sort partitions.  This generator instead draws each
    record's position from one of the skewed key distributions in
    :mod:`repro.shuffle.skew` (``zipf`` popularity over a few hot loci,
    ``heavy-dup`` duplicate sites, ``sorted-runs`` partially ordered
    input, or ``uniform`` as the control) and maps the integer key
    *monotonically* onto ``(chromosome, position)`` — so key-space skew
    becomes genomic-range skew, exactly what the sort's samplers,
    planners and the fleet's shard routing must survive.

    Records stay valid bedMethyl (the full sort → encode → verify
    pipeline runs unchanged); only where the records *sit* changes.
    Emission order is shuffled except for ``sorted-runs`` (whose runs
    are the point) and ``late-hot`` (whose hot key must stay in the
    stream's tail).
    """
    count = estimate_record_count(target_bytes)
    spec = SkewSpec(
        distribution=distribution,
        zipf_s=zipf_s,
        distinct_keys=distinct_keys,
        run_length=run_length,
        late_hot_fraction=late_hot_fraction,
        late_hot_share=late_hot_share,
    )
    rng = random.Random(seed)
    keys = skewed_keys(count, spec, rng)
    # Monotone key → (chromosome, position) map: chromosome rank is the
    # key's high bits, the position its low bits (scaled into a
    # realistic coordinate range), so integer-key order equals
    # bed_sort_key order and the skew survives the mapping.
    per_chrom = max(1, spec.key_space // len(CHROMOSOMES))
    chroms, starts, coverages, pcts = [], [], [], []
    for key in keys:
        chrom_rank = min(len(CHROMOSOMES) - 1, key // per_chrom)
        offset = key - chrom_rank * per_chrom
        chroms.append(chrom_rank)
        starts.append(10_000 + (offset * 200_000_000) // per_chrom)
        coverages.append(max(1, round(rng.gauss(18.0, 4.0))))
        pcts.append(min(100, max(0, round(rng.gauss(72.0, 20.0)))))
    lines = column_lines(
        BedColumns(
            chroms, starts, [start + 2 for start in starts], [False] * len(keys), coverages, pcts
        )
    )
    if distribution not in ("sorted-runs", "late-hot"):
        _shuffle(rng, lines)
    return "".join(lines).encode("ascii")


@functools.lru_cache(maxsize=8)
def methylome_payload(
    real_bytes: int,
    seed: int,
    distribution: str,
    zipf_s: float,
    distinct_keys: int,
    sorted_output: bool,
    /,
) -> bytes:
    """The pipeline's input payload under a key law, generated once per argument set.

    ``distribution="uniform"`` is the chromosome-weighted methylome of
    :class:`MethylomeGenerator` (``sorted_output`` keeps it in genomic
    order); any other law goes to :func:`generate_skewed_bed_bytes` with
    its ``zipf_s`` / ``distinct_keys`` knobs.  Experiments stage the same
    input again for every configuration and sweep row they compare, and
    a payload is a pure function of these six values, so the few most
    recent ones are kept: the bytes are immutable, and the bound keeps a
    long sweep over sizes from holding every payload it ever made.
    """
    if distribution == "uniform":
        return MethylomeGenerator(seed=seed).generate_bed_bytes(
            real_bytes, sorted_output=sorted_output
        )
    return generate_skewed_bed_bytes(
        real_bytes,
        seed=seed,
        distribution=distribution,
        zipf_s=zipf_s,
        distinct_keys=distinct_keys,
    )
