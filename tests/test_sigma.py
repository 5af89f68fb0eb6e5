import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import is_class_number
from sigmagraph.errors import DomainError, GroupInputError, ResourceLimitError
from sigmagraph.sigma import (ATOMIC, PiSet, SigmaPartition,
                              parse_sigma_spec, pi_part,
                              prime_factors, primes_of, sigma_coprime,
                              sigma_of_int)

TWO_THREE = SigmaPartition(explicit_classes=(frozenset({2, 3}),))
SPLIT = SigmaPartition(explicit_classes=(frozenset({2, 5}), frozenset({3})))

positive = st.integers(min_value=1, max_value=10**6)


@given(positive.filter(lambda n: n > 1))
def test_prime_factors_reconstruct(n):
    prod = 1
    for p, e in prime_factors(n):
        assert primes_of(p) == (p,)
        prod *= p**e
    assert prod == n


def test_prime_factors_edge_cases():
    assert prime_factors(1) == ()
    assert prime_factors(12) == ((2, 2), (3, 1))
    with pytest.raises(DomainError):
        prime_factors(0)


@given(positive, positive)
def test_sigma_of_product_is_union(n, m):
    for sigma in (ATOMIC, TWO_THREE, SPLIT):
        assert sigma_of_int(n * m, sigma) == sigma_of_int(n, sigma) | sigma_of_int(m, sigma)


@given(positive)
def test_pi_part_splits_n(n):
    for sigma in (TWO_THREE, SPLIT):
        touched = sigma_of_int(n, sigma)
        for cls in touched:
            rest = touched - {cls}
            assert pi_part(n, frozenset({cls})) * pi_part(n, rest) == n


@given(positive, positive)
def test_sigma_coprime_matches_gcd_classes(n, m):
    assert sigma_coprime(n, m, ATOMIC) == (
        not set(primes_of(n)) & set(primes_of(m)))


def test_classify_total_and_residual():
    assert SPLIT.classify(2).tag == "explicit:0"
    assert SPLIT.classify(5).tag == "explicit:0"
    assert SPLIT.classify(3).tag == "explicit:1"
    assert SPLIT.classify(7).tag == "residual"
    assert ATOMIC.classify(7).tag == "atomic:7"
    with pytest.raises(DomainError):
        SPLIT.classify(6)


def test_partition_validation():
    with pytest.raises(GroupInputError):
        SigmaPartition(explicit_classes=(frozenset({4}),))
    with pytest.raises(GroupInputError):
        SigmaPartition(explicit_classes=(frozenset({2}), frozenset({2, 5})))
    with pytest.raises(GroupInputError):
        SigmaPartition(explicit_classes=(frozenset(),))
    with pytest.raises(GroupInputError):
        SigmaPartition(explicit_classes=(frozenset({2}),), atomic=True)


def test_json_round_trip():
    for sigma in (ATOMIC, TWO_THREE, SPLIT):
        assert SigmaPartition.from_json(sigma.to_json()) == sigma
    # a new object per call: the module-level ATOMIC's memos stay out of the CLI
    assert parse_sigma_spec("atomic") == ATOMIC
    assert parse_sigma_spec("atomic") is not ATOMIC
    assert parse_sigma_spec("atomic") is not parse_sigma_spec("atomic")
    assert parse_sigma_spec('{"classes": [[3], [2, 5]]}') == SigmaPartition(
        explicit_classes=(frozenset({3}), frozenset({2, 5})))
    assert SigmaPartition.from_json({"atomic": True}) == ATOMIC
    assert SigmaPartition.from_json({"classes": [[2, 2]], "atomic": False}) == SigmaPartition(
        explicit_classes=(frozenset({2}),))
    with pytest.raises(GroupInputError):
        parse_sigma_spec("{not json")


@pytest.mark.parametrize("data", [{"classes": [[2.9]]}, {"classes": [["3"]]},
                                  {"classes": [[True]]}, {"classes": [3]},
                                  {"classes": "23"}, {"classes": [(2, 3)]},
                                  {"atomic": "false"}, {"atomic": 0},
                                  {"clases": [[2, 3]]}, {"classes": [[2]], "atomc": True}])
def test_partition_json_is_not_coerced(data):
    """Members must be ints (not bools), classes lists, atomic a boolean, and
    no other key is read."""
    with pytest.raises(GroupInputError):
        SigmaPartition.from_json(data)


def test_class_membership_and_parts():
    c23 = TWO_THREE.classify(2)
    assert c23.contains(3) and not c23.contains(5)
    assert pi_part(360, frozenset({c23})) == 72
    assert is_class_number(72, c23) and not is_class_number(360, c23)
    residual = TWO_THREE.classify(5)
    assert pi_part(360, frozenset({residual})) == 5


def test_classes_tied_to_partition():
    assert ATOMIC.classify(2) != SigmaPartition(atomic=True).classify(2) or (
        ATOMIC == SigmaPartition(atomic=True))
    with pytest.raises(DomainError):
        PiSet(frozenset({ATOMIC.classify(2), TWO_THREE.classify(2)}))


def test_sort_key_orders_explicit_before_residual():
    classes = sorted([SPLIT.classify(7), SPLIT.classify(3), SPLIT.classify(2)],
                     key=lambda c: c.sort_key)
    assert [c.tag for c in classes] == ["explicit:0", "explicit:1", "residual"]
    assert [SPLIT.classify(p).sort_key for p in (11, 3, 5)] == [(2, 0), (0, 1), (0, 0)]
    atomic = sorted((ATOMIC.classify(p) for p in (7, 2, 5, 3)), key=lambda c: c.sort_key)
    assert [c.sort_key for c in atomic] == [(1, 2), (1, 3), (1, 5), (1, 7)]


def test_classify_memo_returns_one_object_per_prime():
    sigma = SigmaPartition(explicit_classes=(frozenset({2, 5}), frozenset({3})))
    for p in (2, 3, 5, 7, 11):
        assert sigma.classify(p) is sigma.classify(p)
    assert sigma.classify(2) == sigma.classify(5) != sigma.classify(3)
    assert ATOMIC.classify(7) is ATOMIC.classify(7)


def test_classes_of_equal_partitions_are_equal():
    """Two equal-valued partition objects keep separate memos, and their
    classes still compare and hash equal."""
    a = SigmaPartition(explicit_classes=(frozenset({2, 3}),))
    b = SigmaPartition(explicit_classes=(frozenset({2, 3}),))
    assert a is not b and a == b and hash(a) == hash(b)
    for p in (2, 3, 5, 7):
        ca, cb = a.classify(p), b.classify(p)
        assert ca is not cb and ca == cb and hash(ca) == hash(cb)
        assert ca.sort_key == cb.sort_key and ca.tag == cb.tag
    assert SigmaPartition(atomic=True).classify(5) == ATOMIC.classify(5)


def test_hashes_do_not_move_when_the_memos_fill():
    """Partitions, classes and class sets compute their hash once; the
    classify and sigma_of_int memos are not part of it, so equal values
    built separately hash equal before and after either memo fills."""
    a = SigmaPartition(explicit_classes=(frozenset({2, 5}), frozenset({3})))
    b = SigmaPartition(explicit_classes=(frozenset({2, 5}), frozenset({3})))
    before = hash(a)
    ca = a.classify(2)
    pa = PiSet(frozenset({ca}))
    hashes = (hash(a), hash(ca), hash(pa))
    for n in (60, 77, 1):
        sigma_of_int(n, a)
    for p in (3, 5, 7, 11):
        a.classify(p)
    assert before == hash(b) == hashes[0] == hash(a)
    assert (hash(ca), hash(pa)) == hashes[1:]
    cb = b.classify(2)
    pb = PiSet(frozenset({cb}))
    assert cb is not ca and cb == ca and hash(cb) == hash(ca)
    assert pb == pa and hash(pb) == hash(pa)
    assert hash(a) == hash(b)


def test_sigma_of_int_is_memoised_per_partition():
    sigma = SigmaPartition(explicit_classes=(frozenset({2, 3}),))
    assert sigma_of_int(360, sigma) is sigma_of_int(360, sigma)
    assert sigma_of_int(360, sigma) == {sigma.classify(2), sigma.classify(5)}
    assert sigma_of_int(1, sigma) == frozenset()
    for _ in range(2):
        with pytest.raises(DomainError):
            sigma_of_int(0, sigma)


def test_classes_of_different_partitions_never_equal():
    partitions = (ATOMIC, TWO_THREE, SPLIT)
    for p in (2, 3, 5, 7):
        classes = [sigma.classify(p) for sigma in partitions]
        classes += [sigma.classify(p) for sigma in partitions]
        for i, c in enumerate(classes):
            for j, d in enumerate(classes):
                assert (c == d) == (i % 3 == j % 3)


def test_classify_errors_are_never_cached():
    sigma = SigmaPartition(explicit_classes=(frozenset({2}),))
    for _ in range(2):
        with pytest.raises(DomainError):
            sigma.classify(6)
        with pytest.raises(DomainError):
            sigma.classify(1)
        with pytest.raises(ResourceLimitError) as exc:
            sigma.classify(10**18 + 3)
        assert exc.value.cap_name == "max_prime"
    assert sigma.classify(2).tag == "explicit:0"


@given(st.integers(min_value=2, max_value=200))
def test_memoised_class_matches_a_fresh_partition(p):
    if primes_of(p) != (p,):
        return
    for sigma in (ATOMIC, TWO_THREE, SPLIT):
        fresh = SigmaPartition.from_json(sigma.to_json())
        assert sigma.classify(p) == fresh.classify(p)
        assert primes_of(p) is primes_of(p)


def test_partition_spec_refuses_a_huge_integer_before_factoring():
    with pytest.raises(ResourceLimitError) as exc:
        parse_sigma_spec('{"classes": [[2], [1000000000000000003]]}')
    assert exc.value.cap_name == "max_prime"
    assert SigmaPartition(explicit_classes=(frozenset({999983}),)).classify(999983).tag == "explicit:0"
