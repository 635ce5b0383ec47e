import random

from conftest import fresh_kept
from scpp.budget import Kept
from scpp.plane_partitions import count_pp, count_scpp
from scpp.products import box_count, sc_count
from scpp.schur import schur_tableau_sum


def test_kept_evicts_the_least_recently_used_first():
    store = Kept(10)
    assert store.put("a", 1, 2) == 1  # costs 3
    store.put("b", 2, 3)  # 4
    store.put("c", [], 0)  # 1: an empty value costs 1
    assert store.get("a") == 1  # now the most recently used
    assert store.held == 8
    store.put("d", 4, 3)  # 12 > 10: "b" goes
    assert store.get("b") is None
    assert [store.get(key) for key in "acd"] == [1, [], 4]
    assert store.held == 3 + 1 + 4
    # a value that alone costs more than the bound is returned, not kept,
    # and evicts nothing
    value = object()
    assert store.put("e", value, 10) is value
    assert store.get("e") is None and store.held == 8
    # values of size 0 cannot pile up
    for k in range(20):
        store.put(k, (), 0)
    assert store.held == 10
    assert [store.get(k) for k in range(10)] == [None] * 10
    assert [store.get(k) for k in range(10, 20)] == [()] * 10


def test_kept_matches_a_list_of_what_it_holds():
    # the model: (key, size) pairs, the least recently used first
    rng = random.Random(27)
    store, model = Kept(20), []
    for _ in range(3000):
        key = rng.randrange(12)
        kept = [entry for entry in model if entry[0] == key]
        model = [entry for entry in model if entry[0] != key]
        if rng.random() < 0.5:
            assert store.get(key) == (("value", *kept[0]) if kept else None)
            model += kept  # now the most recently used
        else:
            size = rng.randrange(25)
            store.put(key, ("value", key, size), size)  # a kept key is replaced
            if size + 1 <= 20:
                model.append((key, size))
            while sum(s + 1 for _, s in model) > 20:
                model.pop(0)
        assert store.held == sum(s + 1 for _, s in model) <= 20


def test_schur_polynomials_and_row_tables_share_one_bounded_store():
    # a polynomial of 135 terms; a count on the 35 rows of (3, 4) and its two
    # steps; a count on the 70 rows of (4, 4) and its two steps, which push
    # out the polynomial, then the (3, 4) table, the least recently used
    with fresh_kept(300) as store:
        poly = schur_tableau_sum((3, 3), 5)
        assert len(poly.terms) == 135
        assert count_scpp(4, 3, 4) == sc_count(4, 3, 4)
        assert store.held == 136 + 3 * 36
        assert count_pp(2, 4, 4) == box_count(2, 4, 4)
        assert store.held == 2 * 36 + 3 * 71
        assert store.get(("schur", (3, 3), 5)) is None
        assert store.get(("rows", 3, 4)) is None
        assert schur_tableau_sum((3, 3), 5) == poly
        assert count_scpp(4, 3, 4) == sc_count(4, 3, 4)
        assert store.held <= 300
