"""Symbol validation, block Schur normal form, iterates, adjoints, and
what a symbol remembers of its normal form."""

import copy
import dataclasses
import pathlib
import pickle
import runpy

import numpy as np
import pytest

from fockop import (
    AffineSymbol,
    FockopError,
    InconsistentError,
    NonFiniteEntryError,
    NonSquareError,
    NormExceedsOneError,
    ShapeMismatchError,
    SizeOverflowError,
    StructureViolationError,
    adjoint_symbol,
    block_schur_form,
    block_schur_of_symbol,
    build_adjoint_truncation,
    build_truncation,
    check_bounded,
    check_cyclic,
    classify,
    compose_symbols,
    construct_eigenfunction,
    eigenvalues,
    enumerate_spectrum,
    essential_norm,
    iterate_symbol,
    operator_norm,
    solve_z0,
    verify_eigenfunction,
)
from fockop.analysis import _bounded_verdict, _essential_norm, _operator_norm, _require_bounded
from fockop.symbol import (
    DEFAULT_TOL_UNIT,
    _block_schur,
    _eig_sort_keys,
    _eigenvalues_of,
    _is_sorted_triangular,
    sort_eigenvalues,
)
from conftest import (
    make_corpus,
    random_bounded_noncompact_symbol,
    random_compact_symbol,
    random_normal_matrix,
    random_unitary,
    reference_eig_sort_key,
)

RNG_SEED = 20240811


def test_constructor_validation():
    with pytest.raises(ShapeMismatchError):
        AffineSymbol(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ShapeMismatchError):
        AffineSymbol(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(NonFiniteEntryError):
        AffineSymbol(np.array([[np.nan]]), np.zeros(1))
    with pytest.raises(NonFiniteEntryError):
        AffineSymbol(np.eye(1), np.array([np.inf]))


def test_symbol_is_frozen():
    s = AffineSymbol(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        s.A[0, 0] = 2.0
    # so norm_a can be cached; a norm beyond the double range is not
    # cached and raises on every access
    assert s.norm_a == s.norm_a == 1.0
    huge = AffineSymbol(np.array([[1.7e308 + 1.7e308j]]), np.ones(1))
    for _ in range(2):
        with pytest.raises(SizeOverflowError):
            huge.norm_a


def test_symbol_equality_and_hash_by_value():
    rng = np.random.default_rng(RNG_SEED + 7)
    for n in (1, 2, 3):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        s, t = AffineSymbol(A, B), AffineSymbol(A.copy(), B.copy())
        assert s == t and not s != t
        assert hash(s) == hash(t)
        assert len({s, t}) == 1
        assert s != AffineSymbol(A, B + 1.0)
        assert s != AffineSymbol(np.eye(n + 1), np.zeros(n + 1))
        assert s != (A, B) and s != "phi" and s != None  # noqa: E711
        # an array answers elementwise, so the symbol defers to it
        assert s.__eq__(A) is NotImplemented
    # -0.0 equals 0.0, so it must hash alike
    neg = AffineSymbol(np.array([[-0.0, 1.0], [0.5, -0.0j]]), np.array([-0.0, 0.0]))
    pos = AffineSymbol(np.array([[0.0, 1.0], [0.5, 0.0]]), np.zeros(2))
    assert neg == pos and hash(neg) == hash(pos)


def test_call_evaluates_affine_map():
    s = AffineSymbol(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([1.0, 2.0]))
    z = np.array([3.0 + 1j, 4.0])
    assert np.allclose(s(z), s.A @ z + s.B)


@pytest.mark.parametrize("one", [1 - 1e-17j, 1 + 1e-17j, 1 - 1e-15j])
def test_sort_eigenvalues_real_one_first_whatever_its_rounding(one):
    # an argument just below 2pi is the argument 0, not the largest one
    rot = np.exp(1j * np.pi / 4)
    assert reference_eig_sort_key(one)[1] < 1e-12
    assert list(sort_eigenvalues([one, rot])) == [one, rot]
    assert list(sort_eigenvalues([rot, one])) == [one, rot]


def _reference_sort(ev):
    return np.array(sorted(ev, key=reference_eig_sort_key), dtype=complex)


def _edge_spectra(rng):
    """Values on the edges of the sort key: the unimodular band's edge,
    arguments just below 2pi, signed zeros, exact ties and repeats."""
    band = 1.0 - DEFAULT_TOL_UNIT
    edge = [
        band, np.nextafter(band, 0.0), 1 + 1e-15, 1 - 1e-17j, 1 + 1e-17j,
        1 - 1e-15j, -1.0, 1j, -1j, complex(0.0, -0.0), complex(-0.0, 0.0),
        0.0, -0.0, 0.5, 0.5j, -0.5, np.exp(2j * np.pi * (1 - 1e-13)),
    ]
    yield np.array(edge, dtype=complex)
    for _ in range(20):
        yield rng.choice(np.array(edge, dtype=complex), size=12)
    # moduli on both sides of the band, and the argument ties of roots of
    # unity that rounding spreads over the band
    for _ in range(20):
        k = int(rng.integers(2, 9))
        roots = np.exp(2j * np.pi * np.arange(k) / k)
        yield rng.permutation(np.concatenate([roots, roots * (1 - 1e-11), roots * 0.9]))


def _truncation_spectra(rng):
    """Unsorted shell eigenvalues of seeded truncations of every class."""
    for n, N in [(1, 30), (2, 10), (3, 6), (4, 4)]:
        for _ in range(6):
            symbols = [
                random_compact_symbol(rng, n),
                random_bounded_noncompact_symbol(rng, n),
                AffineSymbol(random_unitary(rng, n), np.zeros(n)),
                AffineSymbol(random_normal_matrix(rng, n), np.zeros(n)),
            ]
            for s in symbols:
                blocks = build_truncation(s, N).shell_blocks()
                yield np.concatenate([np.linalg.eigvals(b) for b in blocks])


def test_array_sort_keys_give_the_reference_order_bit_for_bit():
    rng = np.random.default_rng(RNG_SEED + 31)
    count = 0
    for ev in [*_edge_spectra(rng), *_truncation_spectra(rng)]:
        got, want = sort_eigenvalues(ev), _reference_sort(ev)
        assert got.tobytes() == want.tobytes()
        # the sorted diagonal of a triangular matrix is recognized as
        # sorted exactly when the reference keys are nondecreasing
        keys = [reference_eig_sort_key(v) for v in ev[:8]]
        assert _is_sorted_triangular(np.diag(ev[:8])) == (keys == sorted(keys))
        assert _is_sorted_triangular(np.diag(want[:8]))
        count += 1
    assert count == 41 + 96
    neg_m, theta = _eig_sort_keys([1 - 1e-17j, 1 + 1e-17j, 1 - 1e-15j])
    assert np.all(neg_m == -1.0) and np.all(theta < 1e-12)


def _assert_sorted_reconstruction(A, form):
    T = form.M
    assert np.linalg.norm(form.U @ A @ form.U.conj().T - T) < 1e-9
    keys = [reference_eig_sort_key(t) for t in np.diag(T)]
    assert keys == sorted(keys)


def test_block_schur_reconstruction_random():
    rng = np.random.default_rng(RNG_SEED)
    for trial in range(50):
        n = int(rng.integers(1, 5))
        s = int(rng.integers(0, n + 1))
        # unitarily scrambled diag(unimodular block, strict contraction)
        phases = np.exp(2j * np.pi * rng.uniform(size=s))
        inner = rng.uniform(0.1, 0.8, size=n - s) * np.exp(
            2j * np.pi * rng.uniform(size=n - s)
        )
        W = random_unitary(rng, n)
        A = (W * np.concatenate([phases, inner])) @ W.conj().T
        form = block_schur_form(A)
        assert form.s == s
        _assert_sorted_reconstruction(A, form)
        assert np.all(np.abs(np.abs(form.D) - 1) < 1e-10)
        if n - s:
            assert np.all(np.abs(np.diag(form.A1)) < 1)
    # unitaries with eigenvalues exp(i pi k/4): repeated and near-real
    # eigenvalues, whose arguments rounding can push across 0 and 2 pi
    for trial in range(400):
        n = int(rng.integers(2, 5))
        W = random_unitary(rng, n)
        A = (W * np.exp(0.25j * np.pi * rng.integers(0, 8, size=n))) @ W.conj().T
        form = block_schur_form(A)
        assert form.s == n
        _assert_sorted_reconstruction(A, form)


def test_block_schur_eigen_order_is_canonical():
    A = np.diag([0.5, np.exp(0.3j), np.exp(0.1j), 0.9])
    form = block_schur_form(A)
    assert form.s == 2
    # unimodular entries argument-ascending, inner moduli descending
    assert np.allclose(form.D, [np.exp(0.1j), np.exp(0.3j)])
    assert np.allclose(np.diag(form.A1), [0.9, 0.5])
    # a rotation by 3 degrees scrambles diag(exp(i pi/4), 1)
    c, s = np.cos(np.deg2rad(3)), np.sin(np.deg2rad(3))
    R = np.array([[c, -s], [s, c]])
    A = R @ np.diag([np.exp(0.25j * np.pi), 1.0]) @ R.T
    form = block_schur_form(A)
    assert form.s == 2
    assert np.allclose(form.D, [1.0, np.exp(0.25j * np.pi)])
    _assert_sorted_reconstruction(A, form)


def test_block_schur_fast_path_identity_u():
    A = np.array([[1j, 0.0], [0.0, 0.5]])
    form = block_schur_form(A)
    assert np.array_equal(form.U, np.eye(2))
    assert form.s == 1


def test_one_modulus_rule_decides_the_unimodular_band():
    # |z| = 1 - 1e-10 exactly as np.hypot and abs() round it, while np.abs
    # of an array may round it one ulp lower, out of the band: the sort
    # keys, the Schur split and the spectrum's closure must all agree
    z = 0.6170707524218286 + 0.7869076733045359j
    assert abs(z) == 1.0 - DEFAULT_TOL_UNIT
    assert _eig_sort_keys([z])[0][0] == -1.0
    assert block_schur_form(np.diag([z, 0.5])).s == 1
    spec = enumerate_spectrum(AffineSymbol([[z]], [0]), 3)
    assert spec.closure_contains_zero is False


def test_block_schur_rejects_expansive():
    with pytest.raises(NormExceedsOneError):
        block_schur_form(np.array([[1.5]]))


def test_block_schur_rejects_unimodular_row_with_off_diagonal_mass():
    # ||A|| = 1 + 7e-13 passes the norm gate, but row 0 of the (already
    # triangular) Schur form carries 1e-6 beside its unimodular diagonal
    with pytest.raises(StructureViolationError, match="unimodular row 0"):
        block_schur_form(np.array([[1.0, 1e-6], [0.0, 0.5]]))


def test_block_schur_of_symbol_transforms_b():
    c = make_corpus()
    s = c["rotation_compact_2d"]
    form = block_schur_of_symbol(s)
    assert np.allclose(form.Bprime, form.U @ s.B)


def test_iterate_symbol_closed_form():
    s = make_corpus()["compact_1d"]
    m = 6
    it = iterate_symbol(s, m)
    a = 0.5
    assert it.A[0, 0] == pytest.approx(a**m)
    assert it.B[0] == pytest.approx(sum(a**k for k in range(m)))
    z = np.array([0.3 + 0.4j])
    w = z
    for _ in range(m):
        w = s(w)
    assert np.allclose(it(z), w)


def test_counts_and_multi_index_entries_take_numpy_integers():
    s = make_corpus()["compact_1d"]
    it, want = iterate_symbol(s, np.int64(3)), iterate_symbol(s, 3)
    assert np.array_equal(it.A, want.A) and np.array_equal(it.B, want.B)
    spec = construct_eigenfunction(s, (), (np.int64(2),))
    assert spec.gamma == (2,) and type(spec.gamma[0]) is int


def test_repr_of_a_huge_translation_warns_of_nothing():
    # |B|^2 = 1e600 leaves the double range; |B| does not
    s = AffineSymbol([[0.5]], [1e300])
    assert repr(s) == "AffineSymbol(n=1, ||A||=0.5, |B|=1e+300)"


def test_compose_symbols_order():
    outer = AffineSymbol(np.array([[2.0]]), np.array([1.0]))
    inner = AffineSymbol(np.array([[3.0]]), np.array([5.0]))
    comp = compose_symbols(outer, inner)
    z = np.array([1.5])
    assert np.allclose(comp(z), outer(inner(z)))


def test_adjoint_symbol_is_a_star():
    s = make_corpus()["shear_compact_2d"]
    tau, b = adjoint_symbol(s)
    assert np.array_equal(tau.A, s.A.conj().T)
    assert np.all(tau.B == 0)
    assert np.array_equal(b, s.B)


def test_adjoint_truncation_matches_conjugate_transpose():
    # the matrix of C* on the graded basis is the conjugate transpose of
    # the matrix of C, for every symbol, bounded or not
    c = make_corpus()
    for name in ["compact_1d", "mixed_2d", "shear_compact_2d", "unbounded_2d"]:
        s = c[name]
        N = 10 if s.n == 1 else 7
        direct = build_truncation(s, N).matrix
        star = build_adjoint_truncation(s, N).matrix
        assert np.max(np.abs(star - direct.conj().T)) < 1e-10, name


def test_sorted_triangular_fast_path_takes_negative_zeros_as_zero():
    for low in (-0.0, complex(0.0, -0.0), complex(-0.0, -0.0)):
        A = np.array([[1j, 0.0], [low, 0.5]])
        assert _is_sorted_triangular(A)
        assert np.array_equal(block_schur_form(A).U, np.eye(2))
    assert not _is_sorted_triangular(np.array([[1j, 0.0], [5e-324, 0.5]]))
    assert not _is_sorted_triangular(np.array([[0.5, 0.0], [0.0, 1j]]))


# ---------------------------------------------------------------------------
# What a symbol remembers (symbol.per_symbol)

_BENCH_SYMBOLS = runpy.run_path(
    str(pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "symbols.py")
)
_BENCH_CLASSES = (
    "compact", "compact_b0", "hs_safe", "boundary", "unbounded", "normal",
    "unitary", "rotation_tagged", "rotation_untagged", "nilpotent", "zero", "dyadic",
)


def _bench_symbols(seed):
    rng = np.random.default_rng(seed)
    for kind in _BENCH_CLASSES:
        # a nilpotent 1 x 1 matrix is zero, and dyadic symbols stop at n = 2
        for n in {"dyadic": (1, 2), "nilpotent": (2, 3, 4)}.get(kind, (1, 2, 3, 4)):
            case = _BENCH_SYMBOLS["make"](kind, rng, n)
            yield f"{kind}-n{n}", case.A, case.B


def _same_bits(x, y):
    if x is None or y is None:
        return x is y
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _outcome(fn, *args):
    """fn's value, or the type of the FockopError it raises."""
    try:
        return fn(*args)
    except FockopError as exc:
        return type(exc)


def _fields(value):
    if isinstance(value, (type, list)):
        return value
    if dataclasses.is_dataclass(value):
        return [getattr(value, f.name) for f in dataclasses.fields(value)]
    return [value]


def _assert_same(got, want, label):
    got, want = _fields(got), _fields(want)
    if isinstance(want, type):
        assert got is want, label
        return
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray) or w is None:
            assert _same_bits(g, w), label
        else:
            assert g == w and type(g) is type(w), label


def _guarded(memo):
    """The undecorated memo behind a public norm, with its boundedness guard."""

    def fresh(s, tol):
        _require_bounded(s, tol, "")
        return memo.__wrapped__(s, tol)

    return fresh


def _eigenfunction_bits(s, tol):
    """Every field of an eigenfunction of s and its two residuals, as bits,
    or the type of the FockopError that construct_eigenfunction raises."""
    form = _outcome(block_schur_of_symbol, s, tol)
    unimodular = 0 if isinstance(form, type) else form.s
    beta = tuple(j % 3 for j in range(unimodular))
    gamma = tuple(1 + i % 2 for i in range(s.n - unimodular))
    spec = _outcome(construct_eigenfunction, s, beta, gamma, tol)
    if isinstance(spec, type):
        return spec
    psi = spec.normalized_symbol
    terms = [(g, c.real.hex(), c.imag.hex()) for g, c in spec.polynomial.terms.items()]
    return [
        spec.beta, spec.gamma, spec.C, terms, spec.eigenvalue.real.hex(),
        spec.eigenvalue.imag.hex(), psi.A, psi.B, spec.eigenvalue_exact,
        verify_eigenfunction(spec, s, tol).hex(), verify_eigenfunction(spec).hex(),
    ]


def test_remembered_values_have_the_bits_of_a_fresh_computation():
    # each value is asked twice, so the second answer comes from the memo;
    # the reference runs the undecorated function on an equal new symbol
    # (for the eigenfunctions, whose memos sit below construct_eigenfunction,
    # the whole construction and check on an equal new symbol)
    computations = [
        (check_bounded, _bounded_verdict.__wrapped__),
        (solve_z0, solve_z0.__wrapped__),
        (block_schur_of_symbol, lambda s, tol: _block_schur.__wrapped__(s, tol)),
        (operator_norm, _guarded(_operator_norm)),
        (essential_norm, _guarded(_essential_norm)),
    ]
    for label, A, B in _bench_symbols(RNG_SEED + 30):
        s = AffineSymbol(A, B)
        for tol in (DEFAULT_TOL_UNIT, 1e-6):
            for public, fresh in computations:
                want = _outcome(fresh, AffineSymbol(A, B), tol)
                for _ in range(2):
                    _assert_same(_outcome(public, s, tol), want, (label, public.__name__, tol))
            want = _eigenfunction_bits(AffineSymbol(A, B), tol)
            for _ in range(2):
                _assert_same(_eigenfunction_bits(s, tol), want, (label, "eigenfunction", tol))
        want = eigenvalues(A)
        for _ in range(2):
            assert _same_bits(_eigenvalues_of(s), want), label
            assert _same_bits(enumerate_spectrum(s, 2).eigenvalues, want), label


def test_remembered_values_are_keyed_by_tolerance():
    # B has a 1e-8 component along the unit singular direction e_1:
    # unbounded at tolerance 1e-10, bounded at 1e-6
    A, B = np.array([[1.0, 0.0], [0.0, 0.5]]), np.array([1e-8, 1.0])
    for order in ((1e-10, 1e-6), (1e-6, 1e-10)):
        s = AffineSymbol(A, B)
        for _ in range(2):
            for tol in order:
                verdict = check_bounded(s, tol)
                assert verdict.bounded == (tol == 1e-6), (order, tol)
                if tol == 1e-6:
                    assert np.allclose(solve_z0(s, tol), [0.0, 0.5 / 0.75])
                else:
                    assert verdict.witness is not None
                    # an exception is not remembered: it is raised each time
                    with pytest.raises(InconsistentError):
                        solve_z0(s, tol)


def test_one_symbol_runs_its_normal_form_once(monkeypatch):
    import scipy.linalg

    calls = {"schur": 0, "svd": 0}
    schur, svd = scipy.linalg.schur, np.linalg.svd

    def counted_schur(*args, **kwargs):
        calls["schur"] += 1
        return schur(*args, **kwargs)

    def counted_svd(a, *args, **kwargs):
        # the boundedness test takes the full SVD; the singular values
        # alone (compute_uv=False) are another question
        if kwargs.get("compute_uv", True):
            calls["svd"] += 1
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counted_schur)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    rng = np.random.default_rng(RNG_SEED + 31)
    for n in (2, 3):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A *= 0.7 / np.linalg.norm(A, 2)
        s = AffineSymbol(A, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        calls.update(schur=0, svd=0)
        # the closed-form sweep's calls on one symbol
        assert classify(s).bounded.bounded
        essential_norm(s)
        enumerate_spectrum(s, 4)
        spec = construct_eigenfunction(s, (), (1,) * n)
        assert verify_eigenfunction(spec, s) < 1e-10
        check_cyclic(s)
        assert calls == {"schur": 1, "svd": 1}, n


def test_the_closed_form_sweep_takes_three_svds_per_bounded_symbol(monkeypatch):
    # A's singular values, the boundedness test's vectors and cond(V) of the
    # eigenfunction frame: the Schur form's norm gate and z0's cutoff read
    # the singular values the symbol keeps. np.linalg.norm(x, 2) and
    # np.linalg.cond call numpy.linalg._linalg.svd, so that name is
    # counted as well as np.linalg.svd
    from numpy.linalg import _linalg

    calls = []
    svd = _linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    rng = np.random.default_rng(RNG_SEED + 38)
    symbols = []
    for n in (2, 3):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A *= 0.7 / np.linalg.norm(A, 2)
        symbols.append(AffineSymbol(A, rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    monkeypatch.setattr(_linalg, "svd", counted)
    monkeypatch.setattr(np.linalg, "svd", counted)
    for s in symbols:
        calls.clear()
        assert classify(s).bounded.bounded
        essential_norm(s)
        enumerate_spectrum(s, 4)
        spec = construct_eigenfunction(s, (), (1,) * s.n)
        assert verify_eigenfunction(spec, s) < 1e-10
        check_cyclic(s)
        assert len(calls) == 3, (s.n, calls)


def test_one_symbol_derives_its_frame_and_norms_once(monkeypatch):
    from fockop import analysis, spectrum

    calls = {"eig": 0, "psi": 0, "norm": 0}

    def counted(key, fn):
        def run(*args):
            calls[key] += 1
            return fn(*args)

        return run

    monkeypatch.setattr(spectrum, "_matched_eig", counted("eig", spectrum._matched_eig))
    monkeypatch.setattr(spectrum, "_normalized_symbol", counted("psi", spectrum._normalized_symbol))
    monkeypatch.setattr(analysis, "_norm_from_z0", counted("norm", analysis._norm_from_z0))
    rng = np.random.default_rng(RNG_SEED + 33)
    for n in (2, 3):
        s = random_compact_symbol(rng, n)
        calls.update(eig=0, psi=0, norm=0)
        for k in range(4):
            spec = construct_eigenfunction(s, (), (k % 3,) * n)
            assert verify_eigenfunction(spec, s) < 1e-10
        assert classify(s).norm == operator_norm(s)
        assert essential_norm(s) == 0.0
        assert calls == {"eig": 1, "psi": 1, "norm": 1}, n
    # a bounded non-compact symbol: its essential norm is its norm
    s = AffineSymbol(np.diag([1.0, 0.5]), [0.0, 1.0])
    calls.update(norm=0)
    assert classify(s).essential_norm == essential_norm(s) == operator_norm(s)
    assert calls["norm"] == 1


def test_eigenfunction_specs_share_a_read_only_frame():
    s = AffineSymbol([[0.5, 0.1], [0.2, 0.25]], [1.0, 1j])
    first, second = (construct_eigenfunction(s, (), g) for g in ((1, 0), (2, 1)))
    assert first.C is second.C and not first.C.flags.writeable
    psi = first.normalized_symbol
    assert psi is second.normalized_symbol
    assert not (psi.A.flags.writeable or psi.B.flags.writeable)
    with pytest.raises(ValueError):
        first.C[0] = 7.0


def test_norm_and_cyclicity_read_one_singular_value_decomposition(monkeypatch):
    # norm_a is the first of the read-only singular values the symbol
    # keeps, with the bits of np.linalg.norm(A, 2); the cyclicity check
    # reads the last of them and takes no SVD of its own
    rng = np.random.default_rng(RNG_SEED + 32)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            s = AffineSymbol(A, np.zeros(n))
            assert s.norm_a.hex() == float(np.linalg.norm(A, 2)).hex(), n
            assert not s._singular_values.flags.writeable
    s = AffineSymbol(0.5 * random_unitary(rng, 2), [1.0, 1j])
    assert s.norm_a == pytest.approx(0.5)
    assert check_bounded(s).bounded  # takes the full SVD, with vectors

    def refuse(*args, **kwargs):
        raise AssertionError("a second SVD of A")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    assert check_cyclic(s).verdict == "unknown"


def test_remembered_arrays_are_read_only():
    unbounded = AffineSymbol([[1.0, 0.0], [0.0, 0.5]], [1.0, 0.0])
    compact = AffineSymbol([[0.5, 0.1], [0.2, 0.25]], [1.0, 1j])
    reads = [
        lambda: check_bounded(unbounded).witness,
        lambda: enumerate_spectrum(compact, 3).eigenvalues,
        lambda: classify(compact).z0,
        lambda: solve_z0(compact),
        lambda: block_schur_of_symbol(compact).U,
        lambda: block_schur_of_symbol(compact).A1,
    ]
    for read in reads:
        before = read().copy()
        with pytest.raises(ValueError):
            read()[0] = 7.0
        assert _same_bits(read(), before)


def test_copies_and_pickles_start_without_the_memo():
    s = AffineSymbol([[0.5, 0.1], [0.2, 0.25]], [1.0, 1j])
    verdict = classify(s)
    for t in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
        assert t == s and "_memo" not in vars(t)
        assert _same_bits(solve_z0(t), verdict.z0)
    assert "_memo" in vars(s)


def test_eigenvalues_past_the_double_range_raise():
    # eigvals returns the eigenvalue 2e308 as inf
    with pytest.raises(SizeOverflowError, match="double range"):
        eigenvalues([[1e308, 1e308], [1e308, 1e308]])


def test_an_eigenvalue_whose_modulus_overflows_raises():
    # eigvals returns finite parts here, of modulus about 1.8e308; the
    # modulus is taken without numpy's overflow warning
    A = [[1 - 1e308j, 1e308 + 1e300j], [1e154 + 1.7e308j, -1e308 - 1j]]
    with pytest.raises(SizeOverflowError, match="an eigenvalue of A exceeds the double range"):
        eigenvalues(A)


_PHI_1D = AffineSymbol([[0.5]], [1.0])


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: iterate_symbol(_PHI_1D, -1), ValueError, "nonnegative"),
        (lambda: iterate_symbol(_PHI_1D, 1.5), ValueError, "nonnegative"),
        (
            lambda: compose_symbols(_PHI_1D, AffineSymbol(np.eye(2), [0.0, 0.0])),
            ShapeMismatchError,
            "different dimension",
        ),
        (
            lambda: block_schur_form([[np.nan, 0.0], [0.0, 0.5]]),
            NonFiniteEntryError,
            "finite entries",
        ),
        (
            lambda: block_schur_form([[np.inf, 0.0], [0.0, 0.5]]),
            NonFiniteEntryError,
            "finite entries",
        ),
        (lambda: block_schur_form(np.zeros((2, 3))), NonSquareError, "square matrix"),
        (lambda: block_schur_form(np.zeros((0, 0))), ShapeMismatchError, "dimension"),
    ],
    ids=[
        "iterate-negative", "iterate-fraction", "compose-dimensions",
        "schur-nan", "schur-inf", "schur-non-square", "schur-empty",
    ],
)
def test_fail_closed_paths_raise_their_type(call, error, match):
    with pytest.raises(error, match=match) as info:
        call()
    assert type(info.value) is error
