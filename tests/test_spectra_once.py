"""Each spectrum once: the memoized ensemble facts and the batched candidate
evaluation against the computations they replace, bit for bit.

``Ensemble.spectra``, ``Ensemble.entanglement``, ``Ensemble.schmidt_pairs``
and ``Ensemble.mixture_entropies`` are computed on first use and kept; they
must equal fresh ``schmidt_spectra``, ``entropy_bits``, ``np.linalg.svd`` and
``mixture_marginal_entropies`` calls exactly, and a freshly built ensemble
holds none of them. The fixed circuit's candidates are valued once per
ensemble (``Ensemble.cnot_entanglement``, ``Ensemble.cnot_mixture_entropies``):
the memo must agree with a member-by-member reference built from
``apply_cnot``, ``entanglement_entropy`` and partial traces, and fixed delta,
fixed big-delta and ``cnot_bounds`` together take one family SVD and one
family mixture call, which no ensemble-lu, per-state or assign call takes.
Row 0 of those two calls is the ensemble as it is: it seeds ``spectra``,
``entanglement`` and ``mixture_entropies``, with the bytes of the standalone
computations. The family stack is one gather (``cnot_family_gather``), byte
for byte the per-permutation scatter it replaced, and with ``d_A == d_B`` the
two marginals of a mixture share one eigensolve whose bits are those of two
separate calls. Fixed mode selects from the memo
and ``quantify._delta_search`` and ``quantify._gap_search`` value the searched
candidates of both directions with one kernel call each; they must return the
``_Best`` that a transcription taking one direction and one repetition count
at a time returns (the fixed circuit by a hand-built permutation), to the last
bit, in fixed and ensemble-lu modes. The two-qubit depth-1 gap, a closed
form with no search for every rotation, must instead reach at least the
searched value.

The local parts are computed once: a ``ProductSet`` reads its parts from
``schmidt_pairs``, closed-form per-state-lu reads the same memo for both
directions, and ``classify`` searches the components of each block from
each side at most once: it keeps no partitions, so each opening split is
searched once and handed to the free-alternation check.
"""

import functools
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nle import catalog, quantify, states
from nle.dissect import as_product_set, classify
from nle.errors import BadParams, GramNotIdentity, NotProductEnsemble
from nle.gates import apply_cnot, cnot_permutation
from nle.infobounds import cnot_bounds
from nle.linalg import cnot_family, cnot_family_gather, partial_trace
from nle.quantify import (
    DIRECTIONS,
    Mode,
    _Best,
    _delta_objective,
    _delta_search,
    _direction_seed,
    _gap_objective,
    _gap_search,
    _pick_delta,
    _searched_transforms,
    average_entropy_gap,
    nonlocal_entropy,
)
from nle.states import (
    Ensemble,
    PureState,
    entanglement_entropies,
    entanglement_entropy,
    entropy_bits,
    mixture_marginal_entropies,
    _hermitian_spectrum,
    schmidt_spectra,
    vn_entropy,
)

DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]
PRODUCT_CATALOG = ["e2-case2", "walgate-hardy", "case-3x2", "nlwe-3x3", "tiles-upb"]
GENERAL_CATALOG = ["bell-triple", "orth-pair", "ghosh-nonmax", "case-3x2", "more-nl-mixed"]
MODES = [
    Mode("fixed"),
    Mode("ensemble-lu", restarts=1, seed=3, rotate="target"),
    Mode("ensemble-lu", restarts=1, seed=5, rotate="both"),
]


def _unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _random(dims, product: bool, seed: int, k: int = 4) -> Ensemble:
    rng = np.random.default_rng(seed)
    if product:
        members = [np.kron(_unit(rng, dims[0]), _unit(rng, dims[1])) for _ in range(k)]
    else:
        members = [_unit(rng, dims[0] * dims[1]) for _ in range(k)]
    p = rng.uniform(0.2, 1.0, size=k)
    return Ensemble(dims, tuple(p / p.sum()), tuple(PureState(dims, m) for m in members))


def _bits(x):
    """``x`` with every float written as its hex string, arrays as lists."""
    if isinstance(x, np.ndarray):
        return [_bits(v) for v in x.tolist()]
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (tuple, list)):
        return [_bits(v) for v in x]
    if isinstance(x, dict):
        return {key: _bits(v) for key, v in x.items()}
    return x


def _inputs(product: bool):
    names = PRODUCT_CATALOG if product else GENERAL_CATALOG
    yield from ((name, catalog.build(name)) for name in names)
    for n, dims in enumerate(DIMS):
        yield f"random-{dims[0]}x{dims[1]}", _random(dims, product, 40 + n)


PRODUCT_INPUTS = list(_inputs(True))
GENERAL_INPUTS = list(_inputs(False))
DISSECT = importlib.import_module("nle.dissect")  # ``nle.dissect`` itself is the function


# ---------------------------------------------------------------------------
# the memoized facts


MEMOS = ("spectra", "entanglement", "schmidt_pairs", "mixture_entropies", "cnot_entanglement",
         "cnot_mixture_entropies")


def test_fresh_ensemble_holds_no_memo():
    # the facts are computed on first use, never while an ensemble is built
    for _, e in PRODUCT_INPUTS + GENERAL_INPUTS:
        fresh = Ensemble(e.dims, e.probabilities, e.states)
        assert not set(MEMOS) & set(vars(fresh))
        assert not set(MEMOS) & set(vars(fresh.subset([0])))


@pytest.mark.parametrize("name,e", PRODUCT_INPUTS + GENERAL_INPUTS,
                         ids=[n for n, _ in PRODUCT_INPUTS + GENERAL_INPUTS])
def test_memo_equals_fresh_computation(name, e):
    e = Ensemble(e.dims, e.probabilities, e.states)
    spectra = e.spectra
    assert spectra is e.spectra
    assert not spectra.flags.writeable
    assert spectra.tobytes() == schmidt_spectra(e.amplitudes, e.dims).tobytes()
    assert e.entanglement is e.entanglement
    assert e.entanglement.tobytes() == entropy_bits(schmidt_spectra(e.amplitudes, e.dims)).tobytes()
    fresh = mixture_marginal_entropies(e.amplitudes, np.array(e.probabilities), e.dims)
    assert _bits(e.mixture_entropies) == _bits(fresh)
    assert all(type(s) is float for s in e.mixture_entropies)
    pairs = e.schmidt_pairs
    assert pairs is e.schmidt_pairs
    u, _, vh = np.linalg.svd(e.amplitudes.reshape(len(e), *e.dims))
    assert [p.tobytes() for p in pairs] == [u[:, :, 0].tobytes(), vh[:, 0, :].tobytes()]
    for part in pairs:
        assert not part.flags.writeable and part.flags.c_contiguous and part.base is None


@pytest.mark.parametrize("name", PRODUCT_CATALOG)
def test_product_set_parts_are_the_memo(name):
    e = catalog.build(name)
    ps = as_product_set(e)
    for side, part in zip("AB", e.schmidt_pairs):
        assert ps.parts(side) is part  # no copy
        assert not ps.parts(side).flags.writeable


# ---------------------------------------------------------------------------
# the fixed circuit's memo


def _mixed_members(dims, seed: int, k: int) -> Ensemble:
    """``k`` random members of ``dims``, each a product or a general state."""
    rng = np.random.default_rng(seed)
    members = [np.kron(_unit(rng, dims[0]), _unit(rng, dims[1])) if rng.random() < 0.5
               else _unit(rng, dims[0] * dims[1]) for _ in range(k)]
    p = rng.dirichlet(np.ones(k))
    return Ensemble(dims, tuple(p), tuple(PureState(dims, m) for m in members))


def _marginal_entropies(e, members):
    rho = sum(p * s.projector() for p, s in zip(e.probabilities, members))
    return [vn_entropy(partial_trace(rho, e.dims, side)) for side in "AB"]


@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from(DIMS), k=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_family_memo_matches_member_by_member(seed, dims, k):
    # reference: each member through apply_cnot, right then left, r = 1 .. d_t - 1
    e = _mixed_members(dims, seed, k)
    ents, mixtures = [], []
    for control, d_t in (("A", dims[1]), ("B", dims[0])):
        for r in range(1, d_t):
            after = [apply_cnot(s, control, r) for s in e.states]
            ents.append([entanglement_entropy(s) for s in after])
            mixtures.append(_marginal_entropies(e, after))
    assert e.cnot_entanglement.shape == (len(ents), k)
    assert np.array_equal(e.cnot_entanglement, np.array(ents))  # the same kernel, member by member
    assert np.allclose(e.cnot_mixture_entropies, np.array(mixtures), rtol=0.0, atol=1e-12)


def test_family_memo_is_read_only():
    e = _random((2, 3), False, 7)
    for name in ("entanglement", "cnot_entanglement", "cnot_mixture_entropies"):
        memo = getattr(e, name)
        assert memo is getattr(e, name)
        assert not memo.flags.writeable
        with pytest.raises(ValueError):
            memo[0] = 0.0


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("name", ["nlwe-3x3", "case-3x2", "walgate-hardy"])
def test_fixed_quantifiers_and_bounds_take_one_family_svd(monkeypatch, name):
    e = catalog.build(name)
    e.mixture_entropies  # the mixture as it is, a fact of its own
    svd = _counting(monkeypatch, states, "schmidt_spectra")
    marginals = _counting(monkeypatch, states, "mixture_marginal_entropies")
    nonlocal_entropy(e, Mode("fixed"))
    average_entropy_gap(e, Mode("fixed"))
    for direction in DIRECTIONS:
        cnot_bounds(e, direction)
    assert (len(svd), len(marginals)) == (1, 1)


@pytest.mark.parametrize("name,e", PRODUCT_INPUTS, ids=[n for n, _ in PRODUCT_INPUTS])
def test_fixed_ops_on_a_fresh_ensemble_take_one_svd_and_one_mixture_call(monkeypatch, name, e):
    # row 0 of the family's two batched calls is the ensemble as it is, so
    # the product check, the member entanglement and the mixture's entropies
    # take no call of their own
    e = Ensemble(e.dims, e.probabilities, e.states)
    svds = []
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        svds.append(kwargs.get("compute_uv", True))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    marginals = _counting(monkeypatch, states, "mixture_marginal_entropies")
    nonlocal_entropy(e, Mode("fixed"))
    average_entropy_gap(e, Mode("fixed"))
    for direction in DIRECTIONS:
        cnot_bounds(e, direction)
    assert svds == [False] and len(marginals) == 1


def _seeding_inputs():
    yield from ((c.name, catalog.build(c.name)) for c in catalog.entries())
    for n, dims in enumerate([(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4)]):
        for seed in range(3):
            yield f"random-{dims[0]}x{dims[1]}-{seed}", _mixed_members(dims, 70 + 3 * n + seed, 2 + seed)


SEEDING_INPUTS = list(_seeding_inputs())


@pytest.mark.parametrize("family_first", ["cnot_entanglement", "cnot_mixture_entropies", "spectra"])
@pytest.mark.parametrize("name,e", SEEDING_INPUTS, ids=[n for n, _ in SEEDING_INPUTS])
def test_row_zero_equals_the_standalone_memos(name, e, family_first):
    # whichever memo comes first, the facts row 0 seeds are the bytes the
    # standalone computations give; with spectra first, cnot_entanglement
    # seeds nothing and entanglement is its own memo of spectra
    fresh = Ensemble(e.dims, e.probabilities, e.states)
    getattr(fresh, family_first)
    fresh.cnot_entanglement, fresh.cnot_mixture_entropies
    seeded = {"spectra", "mixture_entropies"} | ({"entanglement"} if family_first != "spectra" else set())
    assert set(vars(fresh)) & {"spectra", "entanglement", "mixture_entropies"} == seeded
    for memo in (fresh.spectra, fresh.entanglement):
        assert not memo.flags.writeable and memo.base is None
    assert fresh.spectra.tobytes() == schmidt_spectra(e.amplitudes, e.dims).tobytes()
    alone = entropy_bits(schmidt_spectra(e.amplitudes, e.dims))
    assert fresh.entanglement.tobytes() == alone.tobytes()
    alone = mixture_marginal_entropies(e.amplitudes, np.array(e.probabilities), e.dims)
    assert _bits(fresh.mixture_entropies) == _bits(alone)
    assert all(type(s) is float for s in fresh.mixture_entropies)


def _scattered_stacks(amplitudes, dims):
    """The family stack as it was built before the gather: row 0 a copy,
    then one scatter through each candidate's ``cnot_permutation``."""
    family = cnot_family(dims)
    out = np.empty((1 + len(family),) + amplitudes.shape, dtype=complex)
    out[0] = amplitudes
    for t, (direction, r) in zip(out[1:], family):
        t[:, cnot_permutation(dims, "A" if direction == "right" else "B", r)] = amplitudes
    return out


GATHER_DIMS = [(d_a, d_b) for d_a in range(1, 5) for d_b in range(1, 5)]


@pytest.mark.parametrize("dims", GATHER_DIMS, ids=lambda d: f"{d[0]}x{d[1]}")
def test_family_gather_equals_the_permutation_loop(dims):
    # d_t = 1 included: its one candidate, r = 1, is the identity
    gather = cnot_family_gather(dims)
    assert gather is cnot_family_gather(dims) and not gather.flags.writeable
    assert gather.shape == (1 + len(cnot_family(dims)), dims[0] * dims[1])
    assert np.array_equal(gather[0], np.arange(dims[0] * dims[1]))
    for k in (1, 3):
        e = _mixed_members(dims, 11 * k + dims[0] * 5 + dims[1], k)
        stacks = e._shifted_stacks()
        assert stacks.flags.c_contiguous
        assert stacks.tobytes() == _scattered_stacks(e.amplitudes, dims).tobytes()


def _two_eigensolves(amplitudes, probs, dims):
    """``mixture_marginal_entropies`` with one eigensolve per marginal."""
    m = amplitudes.reshape(amplitudes.shape[:-1] + tuple(dims))
    weighted = np.asarray(probs)[:, None, None] * m
    s_a = entropy_bits(_hermitian_spectrum(np.einsum("...kij,...klj->...il", weighted, m.conj())))
    s_b = entropy_bits(_hermitian_spectrum(np.einsum("...kij,...kil->...jl", weighted, m.conj())))
    if amplitudes.ndim == 2:
        return float(s_a), float(s_b)
    return s_a, s_b


def _eigensolve_inputs():
    yield from ((c.name, catalog.build(c.name)) for c in catalog.entries())
    for dims in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]:
        for seed in range(4):
            yield f"random-{dims[0]}x{dims[1]}-{seed}", _mixed_members(dims, 200 + seed, 1 + seed)


EIGENSOLVE_INPUTS = list(_eigensolve_inputs())


@pytest.mark.parametrize("name,e", EIGENSOLVE_INPUTS, ids=[n for n, _ in EIGENSOLVE_INPUTS])
def test_merged_eigensolve_equals_two_calls(name, e):
    # LAPACK solves each matrix of a stack on its own, so sharing one call
    # between the two marginals moves no bit, single stack or batched
    probs = np.array(e.probabilities)
    for stack in (e.amplitudes, e._shifted_stacks()):
        got, want = (f(stack, probs, e.dims) for f in (mixture_marginal_entropies, _two_eigensolves))
        assert _bits(got) == _bits(want) and type(got[0]) is type(want[0])


@pytest.mark.parametrize("name,e", EIGENSOLVE_INPUTS, ids=[n for n, _ in EIGENSOLVE_INPUTS])
def test_fixed_big_delta_on_a_fresh_ensemble_takes_one_eigensolve_when_square(monkeypatch,
                                                                               name, e):
    e = Ensemble(e.dims, e.probabilities, e.states)
    eigvalsh = _counting(monkeypatch, np.linalg, "eigvalsh")
    average_entropy_gap(e, Mode("fixed"))
    assert len(eigvalsh) == (1 if e.dims[0] == e.dims[1] else 2)


@pytest.mark.parametrize("mode", [Mode("ensemble-lu", restarts=1, rotate="target"),
                                  Mode("per-state-lu", rotate="target"),
                                  Mode("per-state-lu", depth=2, restarts=1, rotate="control"),
                                  Mode("assign")], ids=lambda m: f"{m.name}-{m.depth}")
@pytest.mark.parametrize("name", ["case-3x2", "bell-triple"])
def test_other_modes_take_no_family_svd(monkeypatch, name, mode):
    # except ensemble-lu delta in a direction with no qubit form (case-3x2
    # left with the target rotated), which reads the fixed family's values
    # once, to compare the plain shifts with the per-state ceiling
    e = catalog.build(name)
    family = _counting(monkeypatch, Ensemble, "_shifted_stacks")
    reads = ["_shifted_stacks"] if (name, mode.name) == ("case-3x2", "ensemble-lu") else []
    for quantifier in (nonlocal_entropy, average_entropy_gap):
        try:
            quantifier(e, mode)
        except (BadParams, NotProductEnsemble, GramNotIdentity):
            pass  # a mode or input the quantity does not take
        assert family == reads and ("cnot_entanglement" in vars(e)) == bool(reads), quantifier
    assert "cnot_mixture_entropies" not in vars(e)


# ---------------------------------------------------------------------------
# batched candidates against one direction, one r at a time


def _one_direction(e, mode, objective, sides, direction):
    """``(r, transformed stack)`` of one direction: the fixed circuit through a
    hand-built permutation, the lu modes through ``_searched_transforms``."""
    if mode.name == "fixed":
        control, d_t = ("A", e.dims[1]) if direction == "right" else ("B", e.dims[0])
        for r in range(1, max(d_t, 2)):
            t = np.empty_like(e.amplitudes)
            t[:, cnot_permutation(e.dims, control, r)] = e.amplitudes
            yield r, t
    else:
        seeds = {direction: _direction_seed(mode.seed, direction)}
        for _, r, t in _searched_transforms(e.amplitudes[None], e.dims, mode, objective, [seeds], sides)[0]:
            yield r, t


def _delta_one_at_a_time(e, mode):
    probs, dims = np.array(e.probabilities), e.dims
    objective = functools.partial(_delta_objective, probs=probs, dims=dims)
    out = {}
    for direction in DIRECTIONS:
        best = None
        for r, t in _one_direction(e, mode, objective, "A", direction):
            contrib = entanglement_entropies(t, dims)
            value = float(probs @ contrib)
            if best is None or value > best.value + 1e-15:
                best = _Best(value, contrib, r)
        out[direction] = best
    return out


def _gap_one_at_a_time(e, mode):
    stack, probs, dims = e.amplitudes, np.array(e.probabilities), e.dims
    s_bar = mixture_marginal_entropies(stack, probs, dims)

    def better(candidate, incumbent):
        if candidate.value > incumbent.value + 1e-12:
            return True
        if candidate.value < incumbent.value - 1e-12:
            return False
        return (np.count_nonzero(candidate.contributions > 1e-9)
                < np.count_nonzero(incumbent.contributions > 1e-9))

    objective = functools.partial(_gap_objective, probs=probs, dims=dims, s_bar=s_bar)
    out = {}
    for direction in DIRECTIONS:
        best = _Best(0.0, entanglement_entropies(stack, dims), 0, (0.0, 0.0), s_bar)
        for r, t in _one_direction(e, mode, objective, "AB", direction):
            s_fin = mixture_marginal_entropies(t, probs, dims)
            gaps = (s_bar[0] - s_fin[0], s_bar[1] - s_fin[1])
            candidate = _Best(max(gaps), entanglement_entropies(t, dims), r, gaps, s_fin)
            if better(candidate, best):
                best = candidate
        out[direction] = best
    return out


@pytest.mark.parametrize("mode", MODES, ids=lambda m: f"{m.name}-{m.rotate}")
@pytest.mark.parametrize("name,e", PRODUCT_INPUTS, ids=[n for n, _ in PRODUCT_INPUTS])
def test_batched_delta_equals_one_at_a_time(name, e, mode):
    e, probs = Ensemble(e.dims, e.probabilities, e.states), np.array(e.probabilities)
    if mode.name == "fixed":  # nonlocal_entropy's selection from the memo
        batched = _pick_delta(cnot_family(e.dims), e.cnot_entanglement, probs)
    else:
        seeds = {d: _direction_seed(mode.seed, d) for d in DIRECTIONS}
        batched = _delta_search(e.amplitudes[None], probs, e.dims, mode, [seeds])[0]
    assert all(type(best) is _Best for best in batched.values())
    assert _bits(batched) == _bits(_delta_one_at_a_time(e, mode))


@pytest.mark.parametrize("mode", MODES, ids=lambda m: f"{m.name}-{m.rotate}")
@pytest.mark.parametrize("name,e", GENERAL_INPUTS, ids=[n for n, _ in GENERAL_INPUTS])
def test_batched_gap_equals_one_at_a_time(name, e, mode):
    e = Ensemble(e.dims, e.probabilities, e.states)
    batched = _gap_search(e, mode)
    assert all(type(best) is _Best for best in batched.values())
    oracle = _gap_one_at_a_time(e, mode)
    if e.dims == (2, 2) and mode.name == "ensemble-lu" and mode.depth == 1:
        # no search runs here, for any rotation (``_qubit_transforms``): the
        # closed form is the optimum, so the searched oracle bounds it from below
        for direction in DIRECTIONS:
            assert batched[direction].value >= oracle[direction].value - 1e-12, direction
    else:
        assert _bits(batched) == _bits(oracle)


# ---------------------------------------------------------------------------
# one kernel call per quantifier call


@pytest.mark.parametrize("name", ["nlwe-3x3", "case-3x2", "walgate-hardy"])
def test_one_kernel_call_per_quantifier(monkeypatch, name):
    # nlwe and case-3x2 have two repetition counts in some direction; the
    # fixed candidates are valued by the memo's two batched calls, once per
    # ensemble, and an lu search values its candidates with one call per kernel
    e = catalog.build(name)
    e.spectra, e.mixture_entropies  # the memo, shared by every later question
    svd = _counting(monkeypatch, states, "schmidt_spectra")
    marginals = _counting(monkeypatch, states, "mixture_marginal_entropies")
    nonlocal_entropy(e, Mode("fixed"))
    assert (len(svd), len(marginals)) == (1, 0)
    average_entropy_gap(e, Mode("fixed"))
    assert (len(svd), len(marginals)) == (1, 1)
    lu = Mode("ensemble-lu", restarts=1, rotate="target")
    svd = _counting(monkeypatch, quantify, "entanglement_entropies")
    marginals = _counting(monkeypatch, quantify, "mixture_marginal_entropies")
    nonlocal_entropy(e, lu)
    assert (len(svd), len(marginals)) == (1, 0)
    average_entropy_gap(e, lu)
    assert (len(svd), len(marginals)) == (2, 1)


# ---------------------------------------------------------------------------
# local parts and component partitions once


@pytest.mark.parametrize("rotate", ["target", "control"])
@pytest.mark.parametrize("name,e", PRODUCT_INPUTS, ids=[n for n, _ in PRODUCT_INPUTS])
def test_per_state_closed_takes_one_svd(monkeypatch, name, e, rotate):
    # both directions read e.schmidt_pairs; the spectra take no unitaries
    e = Ensemble(e.dims, e.probabilities, e.states)
    full = []
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            full.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    nonlocal_entropy(e, Mode("per-state-lu", rotate=rotate))
    assert len(full) <= 1


@pytest.mark.parametrize("name", PRODUCT_CATALOG)
def test_classify_decides_each_partition_once(monkeypatch, name):
    seen = []
    original = DISSECT._components

    def counted(pset, side, mask):
        seen.append((side, mask))
        return original(pset, side, mask)

    monkeypatch.setattr(DISSECT, "_components", counted)
    classify(as_product_set(catalog.build(name)))
    assert seen and len(seen) == len(set(seen))
