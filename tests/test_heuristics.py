"""Hill-climbing heuristics: determinism, the oracle sandwich, and the
complement bridge between the two objectives."""

import pytest

from strsel import heuristics
from strsel import CmsInstance, FfmsInstance, StringSet, coverage
from strsel.exact import solve_cms_exact, solve_ffms_exact
from strsel.gen import random_string_set
from strsel.heuristics import SearchConfig, local_search_cms, local_search_ffms


def test_reaches_optimum_from_input_starts():
    inst = CmsInstance(StringSet.from_texts(["00", "01", "11"]), d=1)
    res = local_search_cms(inst, SearchConfig(seed=0, restarts=3, start="inputs"))
    assert res.value == 3


def test_value_rescored(toleranced=None):
    inst = CmsInstance(random_string_set(2, 6, 5, seed=1), d=2)
    res = local_search_cms(inst, SearchConfig(seed=5, restarts=4, start="random"))
    assert coverage(res.center, inst) == res.value


def test_input_start_baseline():
    for seed in range(10):
        s = random_string_set(2, 6, 5, seed=seed)
        inst = CmsInstance(s, d=2)
        baseline = max(coverage(w, inst) for w in s)
        res = local_search_cms(inst, SearchConfig(seed=0, restarts=5, start="inputs"))
        assert res.value >= baseline


def test_oracle_sandwich():
    for seed in range(15):
        s = random_string_set(2, 6, 6, seed=seed)
        d = seed % 7
        inst = CmsInstance(s, d)
        baseline = max(coverage(w, inst) for w in s)
        heur = local_search_cms(inst, SearchConfig(seed=1, restarts=6, start="inputs"))
        exact = solve_cms_exact(inst)
        assert baseline <= heur.value <= exact.value


def test_ffms_bounded_by_exact():
    for seed in range(10):
        s = random_string_set(2, 5, 5, seed=seed)
        inst = FfmsInstance(s, d=3)
        heur = local_search_ffms(inst, SearchConfig(seed=2, restarts=5, start="random"))
        assert heur.value <= solve_ffms_exact(inst).value


def test_ffms_d_zero_immediate():
    s = random_string_set(2, 4, 7, seed=3)
    res = local_search_ffms(FfmsInstance(s, 0), SearchConfig(seed=0, restarts=1))
    assert res.value == 7


def test_deterministic():
    inst = CmsInstance(random_string_set(2, 8, 6, seed=8), d=3)
    cfg = SearchConfig(seed=123, restarts=4, start="random")
    a = local_search_cms(inst, cfg)
    b = local_search_cms(inst, cfg)
    assert a == b


def test_nonbinary_alphabet():
    inst = CmsInstance(random_string_set(3, 5, 5, seed=4), d=2)
    res = local_search_cms(inst, SearchConfig(seed=0, restarts=3, start="inputs"))
    assert res.value <= solve_cms_exact(inst).value
    assert coverage(res.center, inst) == res.value


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)
    with pytest.raises(ValueError):
        SearchConfig(start="annealing")


def test_rescore_mismatch_raises(monkeypatch):
    inst = CmsInstance(random_string_set(2, 6, 5, seed=1), d=2)
    monkeypatch.setattr(heuristics, "coverage", lambda s, inst: -1)
    with pytest.raises(AssertionError, match="per-word rescore"):
        local_search_cms(inst, SearchConfig(seed=0, restarts=2))
