"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import functools
import random
import time

import pytest

from vceval.cli import main
from vceval.core_model import (
    MASK_SENTINELS,
    DataSource,
    Granularity,
    LifecycleTag,
    MetaInstance,
    Ordering,
    classify_version_pattern,
    compare_versions,
    parse_version,
)
from vceval.datagen import (
    FILTER_ALPHABETIC_RATIO,
    FILTER_AVG_LINE_LENGTH,
    FILTER_MAX_LINE_LENGTH,
    FILTER_SYNTAX_ERROR,
    MaskSpec,
    filter_corpus_file,
    mask_instance,
)
from vceval.lifecycle import collect_surfaces, tag_lifecycle
from vceval.metrics import RuleResult, cdc_check, em_block, estimate_at_k, pearson, score_at_k

from helpers import (
    brute_force_at_k,
    brute_force_subset_max,
    build_fixture_corpus,
    make_reference_snippet,
    perturb_generation,
    random_version_string,
    write_jsonl,
)

P = RuleResult.PASS
F = RuleResult.FAIL
N = RuleResult.NOT_APPLICABLE


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:02d}] FAIL - {description}")
                raise
            print(f"[criterion {number:02d}] PASS - {description}")

        return wrapper

    return decorate


@criterion(1, "estimator equals brute-force subset enumeration (n <= 8, spot values exact)")
def test_criterion_1_estimator_oracle():
    started = time.monotonic()
    for n in range(1, 9):
        for c in range(n + 1):
            for k in range(1, n + 1):
                expected = brute_force_at_k(n, c, k)
                assert abs(estimate_at_k(n, c, k) - expected) <= 1e-12
    assert estimate_at_k(6, 3, 1) == 0.5
    assert estimate_at_k(6, 3, 3) == 0.95
    assert time.monotonic() - started < 1.0


@criterion(2, "score_at_k reduces to the estimator on binary vectors and to subset-max on reals")
def test_criterion_2_score_at_k_reduction():
    started = time.monotonic()
    rng = random.Random(42)
    for _ in range(1000):
        n = rng.randint(1, 8)
        scores = [float(rng.randint(0, 1)) for _ in range(n)]
        k = rng.randint(1, n)
        ones = sum(1 for s in scores if s == 1.0)
        assert abs(score_at_k(scores, k) - estimate_at_k(n, ones, k)) <= 1e-12
    for _ in range(1000):
        n = rng.randint(1, 8)
        scores = [rng.random() for _ in range(n)]
        k = rng.randint(1, n)
        assert abs(score_at_k(scores, k) - brute_force_subset_max(scores, k)) <= 1e-9
    assert time.monotonic() - started < 10.0


# (reference, generated, core_token, rule1..rule5, overall); ground truth derived
# by hand from the five-rule definitions.
CDC_GOLDEN = [
    # identity and the two other worked examples
    ("json.dump(obj, f, indent=2)", "json.dump(obj, f, indent=2)", "dump", P, P, P, N, P, True),
    ("json.dump(obj, f, indent=2)", "json.dump(obj, f)", "dump", P, P, F, N, F, False),
    ("with open(p) as f:\n    f.read()\n", "f = open(p)\nf.read()\n", "open", P, P, P, F, N, False),
    # rule 1 in isolation (reference never calls the token, so rules 3-5 vacuous)
    ("x = df.values", "x = df.to_numpy()", "values", F, P, N, N, N, False),
    ("y = explode", "z = explode", "explode", P, P, N, N, N, True),
    ("y = explode", "exploded = 1", "explode", F, P, N, N, N, False),
    ("y = explode", "s = 'explode'", "explode", F, P, N, N, N, False),
    ("y = explode", "# explode\nz = 1", "explode", F, P, N, N, N, False),
    # rule 2: invalid generations, with and without applicable structure
    ("val = compute", "compute = ", "compute", P, F, N, N, N, False),
    ("open(p)", "open(p", "open", P, F, F, N, N, False),
    (
        "with open(p, mode='r') as f:\n    f.read()\n",
        "with open(p, mode='r' as f:",
        "open",
        P, F, F, F, F, False,
    ),
    # rule 3: argument-count consistency over the reference call set
    ("f(1)\nf(1, 2)\n", "f(9, 9)", "f", P, P, P, N, N, True),
    ("f(1)\nf(1, 2)\n", "f(1, 2, 3)", "f", P, P, F, N, N, False),
    ("g(*args)", "g(x)", "g", P, P, P, N, N, True),
    ("reset()", "reset(1)", "reset", P, P, F, N, N, False),
    ("conn.execute(q, params)", "conn.execute(a)\nconn.execute(b, c)\n", "execute", P, P, P, N, N, True),
    ("pd.DataFrame.from_records(rows)", "DataFrame.from_records(rows)", "from_records", P, P, P, N, N, True),
    ("df.explode('A')", "", "explode", F, P, F, N, N, False),
    # rule 4: with-statement parity, whole-snippet reading
    (
        "with open(p) as f:\n    f.read()\n",
        "with io.open(p) as g:\n    g.read()\n",
        "open",
        P, P, P, P, N, True,
    ),
    (
        "with open(p) as f:\n    f.read()\n",
        "f = open(p)\nwith lock:\n    f.read()\n",
        "open",
        P, P, P, P, N, True,
    ),
    ("data = load(p)", "with open(p) as f:\n    data = load(f)\n", "load", P, P, P, N, N, True),
    # rule 5: keyword-argument parity with superset matching
    ("h(1, x=2)", "h(y=1, x=2)", "h", P, P, P, N, P, True),
    ("h(1, x=2)", "h(1, 2)", "h", P, P, P, N, F, False),
    ("q(a=1, b=2)", "q(a=1, b=2, c=3)", "q", P, P, F, N, P, False),
    ("q(a=1, b=2)", "q(b=4, a=3)", "q", P, P, P, N, P, True),
    (
        "draw(x, y, color='r')\ndraw(x, width=2, style=s)\n",
        "draw(a, b, color='c')",
        "draw",
        P, P, P, N, F, False,
    ),
    (
        "draw(x, y, color='r')\ndraw(x, width=2, style=s)\n",
        "draw(color='c', width=1, style=z)",
        "draw",
        P, P, P, N, P, True,
    ),
    ("f(**opts)", "f(x)", "f", P, P, P, N, N, True),
    # bare-identifier references (token-granularity instances)
    ("to_numpy", "to_numpy", "to_numpy", P, P, N, N, N, True),
    ("to_numpy", "as_matrix", "to_numpy", F, P, N, N, N, False),
]


@criterion(3, "CDC golden suite: hand-authored verdicts for all five rules (>= 25 triples)")
def test_criterion_3_cdc_golden_suite():
    assert len(CDC_GOLDEN) >= 25
    for reference, generated, token, r1, r2, r3, r4, r5, overall in CDC_GOLDEN:
        verdict = cdc_check(generated, reference, token)
        observed = (
            verdict.rule1_core_token,
            verdict.rule2_valid,
            verdict.rule3_arg_count,
            verdict.rule4_with,
            verdict.rule5_keywords,
            verdict.overall,
        )
        assert observed == (r1, r2, r3, r4, r5, overall), (
            f"verdict mismatch for reference={reference!r} generated={generated!r}"
        )


@criterion(4, "CDC dominance: overall CDC implies block EM; CDC@k <= EM@k for k in {1, 3}")
def test_criterion_4_cdc_dominance():
    rng = random.Random(2718)
    cdc_totals = {1: 0.0, 3: 0.0}
    em_totals = {1: 0.0, 3: 0.0}
    for _ in range(500):
        reference, token = make_reference_snippet(rng)
        cdc_correct = em_correct = 0
        n = 6
        for _ in range(n):
            generated = perturb_generation(rng, reference, token)
            verdict = cdc_check(generated, reference, token)
            em_value = em_block(generated, token)
            if verdict.overall:
                assert em_value == 1, (
                    f"CDC passed but EM failed for generated={generated!r} reference={reference!r}"
                )
                cdc_correct += 1
            em_correct += em_value
        for k in (1, 3):
            cdc_value = estimate_at_k(n, cdc_correct, k)
            em_value = estimate_at_k(n, em_correct, k)
            assert cdc_value <= em_value + 1e-12
            cdc_totals[k] += cdc_value
            em_totals[k] += em_value
    for k in (1, 3):
        assert cdc_totals[k] / 500 <= em_totals[k] / 500 + 1e-12


@criterion(5, "masking round-trip reconstructs originals byte-for-byte at all granularities")
def test_criterion_5_masking_round_trip():
    rng = random.Random(1234)
    built = 0
    for index in range(100):
        code, token = make_reference_snippet(rng)
        meta = MetaInstance(
            library="pandas",
            version=parse_version("1.3.5"),
            description="synthetic snippet",
            code=code,
            data_source=DataSource.LIBRARY_SOURCE,
        )
        lines = code.split("\n")
        call_line = next(i for i, line in enumerate(lines) if token in line)
        specs = [
            MaskSpec(Granularity.TOKEN, f"t{index}", token),
            MaskSpec(Granularity.LINE, f"l{index}", token, line_index=call_line),
            MaskSpec(Granularity.BLOCK, f"b{index}", token, line_span=(0, len(lines) - 2)),
        ]
        for spec in specs:
            instance = mask_instance(meta, spec)
            sentinel = MASK_SENTINELS[spec.granularity]
            assert instance.masked_code.count(sentinel) == 1
            assert instance.masked_code.replace(sentinel, instance.reference, 1) == code
            assert instance._replace() == instance  # rebuilt, so re-checked
            built += 1
    assert built == 300


@criterion(6, "lifecycle golden suite: 4-version tree with censoring rules, exact match")
def test_criterion_6_lifecycle_golden(tmp_path):
    presence = {
        "keep": (True, True, True, True),
        "added": (False, True, True, True),
        "dep": (True, True, True, False),
        "solo_last": (False, False, False, True),
        "solo_mid": (False, True, False, False),
        "gap": (True, False, True, True),
    }
    versions = ("1.0", "1.1", "2.0", "2.1")
    root = tmp_path / "versions"
    for column, version in enumerate(versions):
        directory = root / version / "pkg"
        directory.mkdir(parents=True)
        body = "".join(
            f"def {api}(): ...\n" for api, row in sorted(presence.items()) if row[column]
        )
        (directory / "mod.py").write_text(body or "# empty\nplaceholder = 0\n")

    surfaces = collect_surfaces(root)
    assert [s.version.raw for s in surfaces] == list(versions)
    records = tag_lifecycle(surfaces)

    ADD, DEP, GEN = LifecycleTag.ADDITION, LifecycleTag.DEPRECATION, LifecycleTag.GENERAL
    expected = {
        ("pkg.mod.keep", 0): (None, {"1.0": GEN, "1.1": GEN, "2.0": GEN, "2.1": GEN}),
        ("pkg.mod.added", 1): (None, {"1.1": ADD, "2.0": GEN, "2.1": GEN}),
        ("pkg.mod.dep", 0): (3, {"1.0": GEN, "1.1": GEN, "2.0": DEP}),
        ("pkg.mod.solo_last", 3): (None, {"2.1": ADD}),
        ("pkg.mod.solo_mid", 1): (2, {"1.1": DEP}),
        ("pkg.mod.gap", 0): (1, {"1.0": DEP}),
        ("pkg.mod.gap", 2): (None, {"2.0": ADD, "2.1": GEN}),
    }
    observed = {
        (record.api, record.start_index): (record.end_index, dict(record.per_version_tag))
        for record in records
    }
    assert observed == expected


@criterion(7, "corpus filter judges every boundary per the strict threshold readings")
def test_criterion_7_filter_thresholds():
    avg_keep = "a" * 98 + "=1" + "\n"          # single line of exactly 100 chars
    avg_reject = "a" * 99 + "=1" + "\n"        # 101 chars
    assert filter_corpus_file(avg_keep).keep
    assert filter_corpus_file(avg_reject).reasons == (FILTER_AVG_LINE_LENGTH,)

    padding = "\n".join(["c0000003=1"] * 19)
    max_keep = "b" * 998 + "=1" + "\n" + padding + "\n"      # longest line exactly 1000
    max_reject = "b" * 999 + "=1" + "\n" + padding + "\n"    # 1001
    assert filter_corpus_file(max_keep).keep
    assert filter_corpus_file(max_reject).reasons == (FILTER_MAX_LINE_LENGTH,)

    def letters_block(letter_counts):
        return "\n".join("a" * c + "=" + "1" * (99 - c) for c in letter_counts) + "\n"

    alpha_keep = letters_block([24] * 9 + [34])      # 250 letters over 1000 chars = 0.25
    alpha_reject = letters_block([24] * 9 + [33])    # 249/1000 = 0.249
    assert filter_corpus_file(alpha_keep).keep
    assert filter_corpus_file(alpha_reject).reasons == (FILTER_ALPHABETIC_RATIO,)

    assert filter_corpus_file("def f(:\n").reasons == (FILTER_SYNTAX_ERROR,)


@criterion(8, "version algebra: classification, comparison, and total-order properties")
def test_criterion_8_version_algebra():
    assert classify_version_pattern(parse_version("2.0.0")).value == "major"
    assert classify_version_pattern(parse_version("2.1.3")).value == "minor"
    assert compare_versions(parse_version("1.9.0"), parse_version("1.10.0")) is Ordering.LESS

    rng = random.Random(31337)
    versions = [parse_version(random_version_string(rng)) for _ in range(120)]
    flipped = {
        Ordering.LESS: Ordering.GREATER,
        Ordering.GREATER: Ordering.LESS,
        Ordering.EQUAL: Ordering.EQUAL,
    }
    for _ in range(1000):
        a, b = rng.choice(versions), rng.choice(versions)
        assert compare_versions(b, a) is flipped[compare_versions(a, b)]
    for v in versions:
        assert compare_versions(v, v) is Ordering.EQUAL
    for _ in range(1000):
        a, b, c = (rng.choice(versions) for _ in range(3))
        if (
            compare_versions(a, b) is not Ordering.GREATER
            and compare_versions(b, c) is not Ordering.GREATER
        ):
            assert compare_versions(a, c) is not Ordering.GREATER


@criterion(9, "pearson: worked examples within 1e-12 and affine invariance over 200 series")
def test_criterion_9_pearson():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)
    assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)

    rng = random.Random(555)
    for _ in range(200):
        size = rng.randint(3, 20)
        xs = [rng.random() for _ in range(size)]
        ys = [rng.random() for _ in range(size)]
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(-50.0, 50.0)
        assert pearson(xs, [a * x + b for x in xs]) == pytest.approx(1.0, abs=1e-9)
        assert pearson([a * x + b for x in xs], ys) == pytest.approx(pearson(xs, ys), abs=1e-9)
        assert pearson(xs, ys) == pytest.approx(pearson(ys, xs), abs=1e-12)


@criterion(10, "end-to-end determinism: four repeated runs emit identical bytes")
def test_criterion_10_end_to_end_determinism(tmp_path):
    started = time.monotonic()
    instances, samples = build_fixture_corpus(50)
    inst_path = write_jsonl(tmp_path / "instances.jsonl", instances)
    samp_path = write_jsonl(tmp_path / "samples.jsonl", samples)

    outputs = []
    for label in ("a", "b", "c", "d"):
        out = tmp_path / f"report_{label}.json"
        vectors = tmp_path / f"vectors_{label}.jsonl"
        code = main(
            [
                "score",
                "--instances", str(inst_path),
                "--samples", str(samp_path),
                "--metrics", "em,ism,pm,cdc",
                "--k", "1,3",
                "--group-by", "data_source",
                "--per-instance", str(vectors),
                "--out", str(out),
            ]
        )
        assert code == 0
        outputs.append((out.read_bytes(), vectors.read_bytes()))
    assert all(payload == outputs[0] for payload in outputs[1:])
    assert time.monotonic() - started < 30.0
