"""A ``Decomposition`` keeps its line summands as coordinate tuples.

These tests check that the tuple store and the tuple algebra give what the
same operations give when written on ``Line``/``PicClass`` objects (the
references below), and that building and measuring a decomposition builds no
``PicClass`` at all.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobpush import restriction
from frobpush.catalog import pushforward_hirzebruch, pushforward_projective_space
from frobpush.combinat import PrimePower
from frobpush.errors import (
    DeterminantUnsupportedError,
    FrobpushError,
    InvalidParameterError,
    LatticeMismatchError,
    NotFSplitError,
    RankUndefinedError,
)
from frobpush.picard import (
    Decomposition,
    Hirzebruch,
    Line,
    LinearBlowup,
    PicClass,
    Product,
    ProjSpace,
    Quadric,
    SegreConeBlowup,
    Spinor,
    VeroneseConeBlowup,
    change_basis,
)

VARIETIES = [
    ProjSpace(2),
    Product(1, 2),
    Hirzebruch(2),
    LinearBlowup(3, 1),
    VeroneseConeBlowup(2, 3),
    SegreConeBlowup(1, 1),
    Quadric(3),
]
# Each divisor family's restriction as a lattice map: its divisor, its target
# and the image of each source generator, written out here as data
# independent of the declarations ``restriction.restrict`` reads.
RULES = {
    "hirzebruch": ("C0", lambda v: ProjSpace(1), lambda v: ((-v.eps,), (1,))),
    "blowup-linear": ("E", lambda v: ProjSpace(v.d - v.r), lambda v: ((0,), (1,))),
    "veronese-cone": ("E", lambda v: ProjSpace(v.d), lambda v: ((0,), (1,))),
    "segre-cone": ("E", lambda v: Product(v.r, v.s), lambda v: ((0, 0), (1, 0), (0, 1))),
}
RESTRICTED = [v for v in VARIETIES if v.tag in RULES]

coordinate = st.integers(-4, 4)
multiplicity = st.integers(0, 6)


@st.composite
def line_items(draw, variety, basis=None):
    """Coordinate-tuple items on ``variety``, repeats and zeros included."""
    size = len(basis or variety.bases[0])
    coords = st.tuples(*[coordinate] * size)
    return draw(st.lists(st.tuples(coords, multiplicity), max_size=8))


@st.composite
def decompositions(draw, varieties=VARIETIES):
    """A decomposition in any basis of its variety; spinors on quadrics."""
    variety = draw(st.sampled_from(varieties))
    basis = draw(st.sampled_from(variety.bases))
    items = draw(line_items(variety, basis))
    if isinstance(variety, Quadric):
        items += [(Spinor(j), m) for j, m in draw(st.lists(st.tuples(coordinate, multiplicity)))]
    return Decomposition(variety, items, basis=basis)


def as_lines(items, basis):
    return [(Line(PicClass(c, basis)), m) if type(c) is tuple else (c, m) for c, m in items]


# -- references on Line/PicClass objects ---------------------------------------


def ref_dual(decomp):
    items = []
    for summand, mult in decomp.items():
        if isinstance(summand, Line):
            items.append((Line(-summand.cls), mult))
        else:
            items.append((Spinor(1 - summand.j), mult))
    return Decomposition(decomp.variety, items, decomp.basis, decomp.support_only)


def ref_twist(decomp, cls):
    items = []
    for summand, mult in decomp.items():
        if isinstance(summand, Line):
            coords = tuple(a + b for a, b in zip(summand.cls.coords, cls.coords))
            items.append((Line(PicClass(coords, cls.basis)), mult))
        else:
            items.append((Spinor(summand.j + cls.coords[0]), mult))
    return Decomposition(decomp.variety, items, decomp.basis, decomp.support_only)


def ref_det(decomp):
    total = [0] * len(decomp.basis)
    for summand, mult in decomp.items():
        if not isinstance(summand, Line):
            raise DeterminantUnsupportedError("spinor")
        total = [t + mult * c for t, c in zip(total, summand.cls.coords)]
    return PicClass(tuple(total), decomp.basis)


def ref_remove_trivial(decomp):
    trivial = Line(decomp.trivial_class())
    entries = dict(decomp.items())
    if not entries.get(trivial):
        raise NotFSplitError("no trivial summand to remove")
    items = [(s, m) for s, m in entries.items() if s != trivial]
    if entries[trivial] > 1:
        items.append((trivial, entries[trivial] - 1))
    return Decomposition(decomp.variety, items, decomp.basis, decomp.support_only)


def ref_change_basis(decomp, target):
    if target == decomp.basis:
        return decomp
    items = []
    for summand, mult in decomp.items():
        a, b = summand.cls.coords
        items.append((Line(PicClass((a + b, -b), target)), mult))
    return Decomposition(decomp.variety, items, target, decomp.support_only)


def ref_apply_rule(rule, decomp):
    _, target, matrix = rule
    decomp = ref_change_basis(decomp, decomp.variety.bases[0])
    target = target(decomp.variety)
    rows = matrix(decomp.variety)
    target_basis = target.bases[0]
    items = []
    for summand, mult in decomp.items():
        coords = tuple(
            sum(c * row[t] for c, row in zip(summand.cls.coords, rows))
            for t in range(len(target_basis))
        )
        items.append((Line(PicClass(coords, target_basis)), mult))
    return Decomposition(target, items, support_only=decomp.support_only)


def ref_construct(variety, items, basis, support_only):
    """The constructor's contract with every summand taking every check, in
    order: the line and spinor stores, or the refusal it raises."""
    size = len(basis)
    lines, spinors = {}, {}
    for summand, mult in items:
        if type(summand) is tuple:
            if len(summand) != size:
                raise LatticeMismatchError(f"{len(summand)} coordinates against basis {basis}")
            store, key = lines, summand
        elif isinstance(summand, Line):
            if summand.cls.basis != basis:
                raise LatticeMismatchError(
                    f"summand basis {summand.cls.basis} vs decomposition basis {basis}"
                )
            store, key = lines, summand.cls.coords
        elif variety.spinor_rank is None:
            raise InvalidParameterError("spinor summands only live on quadrics")
        else:
            store, key = spinors, summand.j
        if mult is None:
            if not support_only:
                raise InvalidParameterError("unknown multiplicities require support_only=True")
            store[key] = None
        elif mult < 0:
            raise InvalidParameterError(f"multiplicity must be >= 0; got {mult}")
        elif mult:
            prev = store.get(key, 0)
            store[key] = None if prev is None else prev + mult
    return lines, spinors


@st.composite
def mixed_items(draw, variety, basis, support_only):
    """Tuples, ``Line``s and (on quadrics) ``Spinor``s on few keys, so that
    keys repeat, with multiplicities that include 0 and ``True``, and
    ``None`` where ``support_only``; in half the draws one more item at any
    place that a constructor may refuse: a tuple of the wrong length, a
    negative multiplicity, ``None``, or a spinor."""
    small = st.integers(-1, 1)
    coords = st.tuples(*[small] * len(basis))
    summands = [coords, coords.map(lambda c: Line(PicClass(c, basis)))]
    if variety.spinor_rank is not None:
        summands.append(small.map(Spinor))
    mults = [st.integers(0, 4), st.just(True)] + [st.none()] * support_only
    items = draw(st.lists(st.tuples(st.one_of(summands), st.one_of(mults)), max_size=10))
    if draw(st.booleans()):
        zero = (0,) * len(basis)
        faults = [(zero + (0,), 1), (zero, -1), (Line(PicClass(zero, basis)), -2),
                  (zero, None), (Spinor(0), 1)]
        items.insert(draw(st.integers(0, len(items))), draw(st.sampled_from(faults)))
    return items


# -- construction ----------------------------------------------------------------


class TestConstruction:
    @given(st.data())
    def test_tuples_equal_lines(self, data):
        variety = data.draw(st.sampled_from(VARIETIES))
        items = data.draw(line_items(variety))
        from_tuples = Decomposition(variety, items)
        from_lines = Decomposition(variety, as_lines(items, variety.bases[0]))
        assert from_tuples == from_lines
        assert dict(from_tuples.items()) == dict(from_lines.items())
        assert from_tuples.entries == from_lines.entries
        assert from_tuples.sorted_items() == from_lines.sorted_items()
        assert repr(from_tuples) == repr(from_lines)

    @given(st.data())
    def test_merges_and_drops_zeros(self, data):
        variety = data.draw(st.sampled_from(VARIETIES))
        items = data.draw(line_items(variety))
        decomp = Decomposition(variety, items)
        totals = {}
        for coords, mult in items:
            totals[coords] = totals.get(coords, 0) + mult
        assert dict(decomp.lines) == {c: m for c, m in totals.items() if m}
        for coords, total in totals.items():
            assert decomp.multiplicity(coords) == total
            assert decomp.multiplicity(Line(PicClass(coords, decomp.basis))) == total
        assert len(decomp.entries) == len(decomp.lines) == sum(1 for m in totals.values() if m)

    @given(st.data(), st.integers(-5, -1))
    def test_refuses_negative_multiplicity(self, data, mult):
        variety = data.draw(st.sampled_from(VARIETIES))
        items = data.draw(line_items(variety)) + [((0,) * len(variety.bases[0]), mult)]
        for form in (items, as_lines(items, variety.bases[0])):
            with pytest.raises(InvalidParameterError, match="multiplicity must be >= 0"):
                Decomposition(variety, form)

    @given(st.data())
    def test_wrong_length_is_a_lattice_mismatch(self, data):
        variety = data.draw(st.sampled_from(VARIETIES))
        size = len(variety.bases[0])
        length = data.draw(st.integers(0, 4).filter(lambda n: n != size))
        items = data.draw(line_items(variety)) + [((1,) * length, 1)]
        with pytest.raises(LatticeMismatchError):
            Decomposition(variety, items)
        # The Line form fails as early: its class refuses the coordinates.
        with pytest.raises(LatticeMismatchError):
            PicClass((1,) * length, variety.bases[0])

    @given(st.data())
    def test_unknown_needs_support_only(self, data):
        variety = data.draw(st.sampled_from(VARIETIES))
        items = data.draw(line_items(variety)) + [((0,) * len(variety.bases[0]), None)]
        for form in (items, as_lines(items, variety.bases[0])):
            with pytest.raises(InvalidParameterError, match="support_only"):
                Decomposition(variety, form)
        supported = Decomposition(variety, items, support_only=True)
        assert supported == Decomposition(
            variety, as_lines(items, variety.bases[0]), support_only=True
        )
        with pytest.raises(RankUndefinedError):
            supported.trivial_multiplicity()

    @given(st.data(), st.booleans())
    def test_mixed_items_match_the_reference(self, data, support_only):
        variety = data.draw(st.sampled_from(VARIETIES))
        basis = data.draw(st.sampled_from(variety.bases))
        items = data.draw(mixed_items(variety, basis, support_only))
        try:
            lines, spinors = ref_construct(variety, items, basis, support_only)
        except FrobpushError as refusal:
            with pytest.raises(type(refusal)) as err:
                Decomposition(variety, items, basis, support_only)
            assert type(err.value) is type(refusal) and str(err.value) == str(refusal)
            return
        decomp = Decomposition(variety, items, basis, support_only)
        assert list(decomp.lines.items()) == list(lines.items())
        assert list(decomp.spinors.items()) == list(spinors.items())
        assert decomp == Decomposition(variety, list(reversed(items)), basis, support_only)

    def test_unknown_stays_unknown_when_merged(self):
        line = Line(PicClass((0,), ("H",)))
        for first, second in (((0,), (0,)), ((0,), line), (line, (0,))):
            for items in ([(first, None), (second, 2)], [(first, 2), (second, None)]):
                decomp = Decomposition(ProjSpace(1), items, support_only=True)
                assert dict(decomp.lines) == {(0,): None}

    def test_each_refusal_keeps_its_type_and_message(self):
        plane, quadric = ProjSpace(2), Quadric(3)
        cases = [
            (plane, [((0,), 1), ((0, 0), 1)], LatticeMismatchError,
             "2 coordinates against basis ('H',)"),
            (plane, [((0, 0), -1)], LatticeMismatchError, "2 coordinates against basis ('H',)"),
            (plane, [((0,), 2), ((0,), -1)], InvalidParameterError,
             "multiplicity must be >= 0; got -1"),
            (plane, [(Line(PicClass((0,), ("H",))), -3)], InvalidParameterError,
             "multiplicity must be >= 0; got -3"),
            (plane, [((0,), 1), ((1,), None)], InvalidParameterError,
             "unknown multiplicities require support_only=True"),
            (quadric, [(Spinor(0), None)], InvalidParameterError,
             "unknown multiplicities require support_only=True"),
            (plane, [((0,), 1), (Spinor(0), 1)], InvalidParameterError,
             "spinor summands only live on quadrics"),
        ]
        for variety, items, error, message in cases:
            with pytest.raises(error) as err:
                Decomposition(variety, items)
            assert type(err.value) is error and str(err.value) == message

    def test_other_summands_refused(self):
        with pytest.raises(InvalidParameterError, match="only live on quadrics"):
            Decomposition(ProjSpace(1), [(Spinor(0), 1)])
        with pytest.raises(InvalidParameterError, match="coordinate tuple"):
            Decomposition(Quadric(3), [([0], 1)])

    def test_entries_is_read_only(self):
        decomp = Decomposition(ProjSpace(1), [((0,), 2)])
        with pytest.raises(TypeError):
            decomp.entries[Line(PicClass((1,), ("H",)))] = 1
        with pytest.raises(TypeError):
            decomp.lines[(1,)] = 1
        assert Line(PicClass((0,), ("L",))) not in decomp.entries
        assert decomp.entries.get(Line(PicClass((0,), ("H",)))) == 2


# -- algebra against the references ------------------------------------------------


class TestAlgebra:
    @given(decompositions())
    def test_dual(self, decomp):
        assert decomp.dual() == ref_dual(decomp)

    @given(decompositions(), st.data())
    def test_twist(self, decomp, data):
        coords = data.draw(st.tuples(*[coordinate] * len(decomp.basis)))
        cls = PicClass(coords, decomp.basis)
        assert decomp.twist(cls) == ref_twist(decomp, cls)

    @given(decompositions())
    def test_det(self, decomp):
        if decomp.spinors:
            with pytest.raises(DeterminantUnsupportedError):
                decomp.det()
        else:
            assert decomp.det() == ref_det(decomp)

    @given(decompositions())
    def test_remove_trivial(self, decomp):
        if not decomp.trivial_multiplicity():
            with pytest.raises(NotFSplitError):
                decomp.remove_trivial()
            return
        assert decomp.remove_trivial() == ref_remove_trivial(decomp)

    @given(decompositions([LinearBlowup(3, 1), LinearBlowup(4, 2)]), st.integers(0, 1))
    def test_change_basis(self, decomp, index):
        target = decomp.variety.bases[index]
        assert change_basis(decomp, target) == ref_change_basis(decomp, target)

    @given(decompositions(RESTRICTED))
    def test_apply_rule(self, decomp):
        rule = RULES[decomp.variety.tag]
        assert decomp.variety.divisor == rule[0]
        assert restriction.restrict(decomp) == ref_apply_rule(rule, decomp)

    @given(decompositions())
    def test_rank(self, decomp):
        spinor_rank = getattr(decomp.variety, "spinor_rank", 0)
        assert decomp.rank() == sum(
            m if isinstance(s, Line) else m * spinor_rank for s, m in decomp.items()
        )

    @settings(max_examples=50)
    @given(decompositions())
    def test_pickle_and_deepcopy_round_trip(self, decomp):
        for copied in (pickle.loads(pickle.dumps(decomp)), copy.deepcopy(decomp)):
            assert copied == decomp
            assert list(copied.items()) == list(decomp.items())


# -- no classes on the build path --------------------------------------------------


@pytest.fixture
def built(monkeypatch):
    """A list that grows by one for every ``PicClass`` built."""
    count: list[int] = []
    post_init = PicClass.__post_init__

    def counting(self):
        count.append(1)
        post_init(self)

    monkeypatch.setattr(PicClass, "__post_init__", counting)
    return count


def test_builders_build_no_classes(built):
    fp = PrimePower(3, 2)
    for m in range(-2 * fp.q, 2 * fp.q):
        decomp = pushforward_projective_space(2, m, fp)
        assert len(decomp.entries) == len(decomp.lines) > 0
    hirzebruch = pushforward_hirzebruch(2, 0, 0, fp)
    kernel = hirzebruch.remove_trivial().dual()
    restricted = restriction.restrict(hirzebruch)
    assert kernel.rank() == fp.q**2 - 1 and restricted.rank() == fp.q**2
    assert restricted.trivial_multiplicity() > 0
    assert not built
    # Reading the summands builds one class per line summand.
    assert len(list(restricted.items())) == len(built)
