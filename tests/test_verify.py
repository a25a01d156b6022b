import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import pasep
import pasep.verify as verify
from pasep.paths import DOWN, LEVEL, UP, enumerate_laguerre
from pasep.perms import enumerate_permutations
from pasep.polyring import ONE, Y, as_poly, canonical_string


def test_check_eq_records_rendered_detail_only_on_failure(monkeypatch):
    renders = []

    def counting_render(p):
        renders.append(p)
        return canonical_string(p)

    monkeypatch.setattr(verify, "canonical_string", counting_render)
    rep = verify.VerifyReport("demo")
    rep.check_eq("equal", Y + ONE, ONE + Y)
    assert rep.checks == ["equal"] and rep.failures == [] and rep.ok
    assert renders == []

    rep.check_eq("differ", Y * Y + ONE, Y)
    assert rep.checks == ["equal", "differ"]
    assert rep.failures == [("differ", "got y^2 + 1 want y")]
    assert not rep.ok


def test_a_check_is_its_name_and_every_case_under_it():
    rep = verify.VerifyReport("demo")
    for case in range(4):
        rep.check("first", case != 1, f"case {case}")
        rep.check("second", True)
        rep.check("third", case < 2, f"case {case}")
    assert rep.checks == ["first", "second", "third"]
    assert rep.failures == [("first", "case 1"), ("third", "case 2")]
    assert not rep.ok

    rep = verify.VerifyReport("empty")
    for case in range(0):
        rep.check("never", False)
    rep.check("later", True)
    assert rep.checks == ["later"] and rep.ok


def test_one_failing_case_fails_only_its_check(monkeypatch):
    real = verify.formulas.qbinom_lemma_upper
    monkeypatch.setattr(
        verify.formulas, "qbinom_lemma_upper", lambda m, l: (m, l) != (5, 7) and real(m, l)
    )
    rep = verify.identity_suite()
    assert "q-binomial lemmas, m<=8" in rep.checks
    assert rep.failures == [("q-binomial lemmas, m<=8", "")]


def test_verify_and_the_cli_share_one_route_table():
    assert pasep.METHODS is verify.METHODS
    assert len(pasep.METHODS) == 9


def test_zn_checks_its_input():
    assert canonical_string(pasep.zn(1, "paths")) == verify.GOLDEN[1]
    with pytest.raises(ValueError, match="N must be >= 0"):
        pasep.zn(-1, "closed")
    with pytest.raises(ValueError, match="unknown method"):
        pasep.zn(2, "nope")


@pytest.mark.parametrize("route", pasep.METHODS.values(), ids=pasep.METHODS)
def test_every_route_rejects_negative_n_alike(route):
    with pytest.raises(ValueError, match=r"^N must be >= 0$"):
        route(-1)


# SHA-256 of the newline-joined check names of `verify --suite all --max-n 5`,
# in run order; renaming, dropping or reordering any check changes it.
CHECK_NAMES_MAX_N5 = (413, "2afec4c72bbe350fd226f3ee805277ff764db43494f07e2073d21168b36c12c4")


def test_check_names_are_pinned():
    names = [name for rep in verify.run_suite("all", max_n=5) for name in rep.checks]
    assert (len(names), hashlib.sha256("\n".join(names).encode()).hexdigest()) == CHECK_NAMES_MAX_N5


@pytest.mark.parametrize(
    "broken",
    [lambda sigma: sigma, verify.perms.inverse, lambda sigma: tuple(-x for x in sigma)],
    ids=["identity", "inverse", "leaves-S_n"],
)
def test_broken_tilde_fails_only_the_tilde_check(monkeypatch, broken):
    # involutions that break the statistics (fixing every sigma, or pairing
    # sigma with another permutation), and one whose images are not
    # permutations at all: each must fail the tilde check, not raise
    monkeypatch.setattr(verify.perms, "tilde", broken)
    failed = [name for name, _ in verify.bijection_suite(max_n=3).failures]
    assert failed and all(name.startswith("tilde involution preserves") for name in failed)


@pytest.mark.parametrize("name", ["foata_zeilberger", "francon_viennot"])
def test_bad_history_image_fails_its_round_trip_check(monkeypatch, name):
    # an image that is not a Laguerre history: the inverse rejects it, and
    # the suite records a failed round trip instead of raising
    monkeypatch.setattr(verify.bijections, name, lambda sigma: ((DOWN, 0, 0),) * len(sigma))
    failed = {n for n, _ in verify.bijection_suite(max_n=2).failures}
    prefix = "FZ" if name == "foata_zeilberger" else "FV"
    assert {f"{prefix} round trip and validity, n={n}" for n in (1, 2)} <= failed
    assert f"{prefix} round trip and validity, n=0" not in failed
    # both permutations of S_2 get the same image
    assert f"{prefix} injective on S_2" in failed and f"{prefix} injective on S_1" not in failed


def test_wrong_history_weight_fails_both_weight_laws(monkeypatch):
    real = verify.history_scan
    monkeypatch.setattr(verify, "history_scan", lambda steps: (0, 0, *real(steps)[2:]))
    failed = {n for n, _ in verify.bijection_suite(max_n=2).failures}
    laws = {f"FZ weight law y^wex q^cr, n={n}" for n in (1, 2)}
    laws |= {f"FV weight law y^asc q^31-2, n={n}" for n in (1, 2)}
    assert laws <= failed
    assert "FZ weight law y^wex q^cr, n=0" not in failed


def test_history_code_is_injective_on_laguerre_histories():
    # the bijection suite counts distinct histories by their codes, so the
    # code must separate every two histories of at most n steps
    for n in range(7):
        histories = [h for m in range(n + 1) for h in enumerate_laguerre(m)]
        assert len(set(histories)) == len(histories)
        assert len({verify._history_code(h, n) for h in histories}) == len(histories)


def _mask(bits):
    return sum(1 << b for b in bits)


def test_extrema_masks_match_their_set_definitions():
    for n in range(8):
        for sigma in enumerate_permutations(n):
            pos = range(1, n + 1)
            lr_max = [p for p in pos if all(sigma[q - 1] < sigma[p - 1] for q in range(1, p))]
            rl_min = [p for p in pos if all(sigma[q - 1] > sigma[p - 1] for q in range(p + 1, n + 1))]
            rl_max = [p for p in pos if all(sigma[q - 1] < sigma[p - 1] for q in range(p + 1, n + 1))]
            assert verify._extrema(sigma) == (
                _mask(lr_max),
                _mask(rl_min),
                _mask(sigma[p - 1] for p in rl_min),
                _mask(sigma[p - 1] for p in rl_max),
                _mask(p for p in pos if sigma[p - 1] == p),
            ), sigma


def _fv_cover_one_late(sigma):
    """francon_viennot with each descent counted from one position too late:
    the value right after a descent's bottom misses that descent."""
    n = len(sigma)
    steps = [None] * n
    lows = highs = 0
    pending = (0, 0)  # the descent that ends at the left neighbour
    left = 0
    for k, right in zip(sigma, (*sigma[1:], n + 1)):
        below = (1 << k) - 1
        i = (lows & below).bit_count() - (highs & below).bit_count()
        if k < right:
            steps[k - 1] = (UP if left > k else LEVEL, 1, i)
        else:
            steps[k - 1] = (DOWN if left < k else LEVEL, 0, i)
        lows, highs = lows | pending[0], highs | pending[1]
        pending = (1 << k, 1 << left) if left > k else (0, 0)
        left = k
    return tuple(steps)


def test_fv_with_a_late_descent_cover_fails_its_law_and_round_trip(monkeypatch):
    assert verify.bijections.francon_viennot((3, 1, 2))[1] == (LEVEL, 1, 1)
    assert _fv_cover_one_late((3, 1, 2))[1] == (LEVEL, 1, 0)
    monkeypatch.setattr(verify.bijections, "francon_viennot", _fv_cover_one_late)
    failed = {n for n, _ in verify.bijection_suite(max_n=3).failures}
    assert {"FV weight law y^asc q^31-2, n=3", "FV round trip and validity, n=3"} <= failed
    assert not any(name.startswith("FZ") for name in failed)


def test_type_masks_shifted_by_one_bit_fail_the_lemmas(monkeypatch):
    real = verify.history_scan
    monkeypatch.setattr(
        verify, "history_scan", lambda steps: (*real(steps)[:2], *(m << 1 for m in real(steps)[2:]))
    )
    failed = {n for n, _ in verify.bijection_suite(max_n=4).failures}
    lemmas = (
        "type-1 steps are the left-to-right maxima",
        "type-2 steps are the non-fixed right-to-left minima",
        "FV type-1 steps are the right-to-left minima",
        "FV type-2-after-type-1 are the right-to-left maxima",
    )
    assert {f"{lemma}, n={n}" for lemma in lemmas for n in (2, 3, 4)} <= failed
    assert all(name.startswith(lemmas) for name in failed)


def test_suites_specialize_each_zn_once_per_point(monkeypatch):
    # q_eulerian, q_stirling2's from_Z and mu_from_Z read Z(N) at a point
    # once per k or per N; each (N, point) must be substituted once only
    formulas = verify.formulas
    for obj in vars(formulas).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    n_of = {id(formulas.zn_closed(N)): N for N in range(11)}
    made = Counter()
    real = formulas.substitute

    def counting(p, var, value):
        if id(p) in n_of:
            made[n_of[id(p)], var, canonical_string(as_poly(value))] += 1
        return real(p, var, value)

    monkeypatch.setattr(formulas, "substitute", counting)
    monkeypatch.setattr(verify, "substitute", counting)
    for suite in (verify.eulerian_suite, verify.stirling_suite, verify.moment_suite):
        assert suite().ok
    assert {(8, "a", "1"), (8, "y", "1")} <= set(made)
    assert max(made.values()) == 1, made.most_common(3)


KEPT_AFTER_CROSS_CHECK = """
import gc, tracemalloc
import pasep.verify as verify
tracemalloc.start()
assert verify.golden_values().ok and verify.cross_methods().ok
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""


def test_cross_checks_keep_only_reread_values():
    # golden_values and cross_methods read each route's Z(N), N <= 10, and
    # only zn_closed's is read again by later suites; a fresh interpreter,
    # so that no earlier test has warmed a cache
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", KEPT_AFTER_CROSS_CHECK],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 3.5e6
