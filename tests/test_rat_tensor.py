"""Exact scalar and tensor container behavior."""

import copy
import importlib
import pickle
from fractions import Fraction
from itertools import permutations, product
from math import gcd

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import DIM, int_str_limit_lifted, rat_tensor, small_rats, spd_metrics
from sscurv import DistinguishedField, MetricFrame, Tensor, ValenceError, rat
from sscurv.connection import semi_symmetric_torsion
from sscurv.context import operator_derivative
from sscurv.curvature import _wedge_sum, wedge
from sscurv.solitons import _m61_rhs
from sscurv.rat import Rat, format_rat, format_rats, parse_rat
from sscurv.tensor import DOWN, UP


def test_rat_lowest_terms_positive_denominator():
    x = rat(6, -4)
    assert x.numerator == -3 and x.denominator == 2
    assert rat("10/15") == rat(2, 3)
    assert format_rat(rat(-14, 7)) == "-2"
    assert format_rat(rat(3, 9)) == "1/3"
    assert format_rat(-5) == "-5"
    # p / den, not reduced, is written in lowest terms.
    assert format_rats([-3, 25, 0], 18) == ["-1/6", "25/18", "0"]
    for den in range(1, 25):
        assert format_rats(range(-24, 25), den) == [str(Fraction(x, den)) for x in range(-24, 25)]


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(1, 2.0)


def test_rat_returns_a_rat_unchanged():
    x = rat(-7, 3)
    assert rat(x) is x
    assert type(rat(5)) is Rat and rat(5) == 5 and rat("-6/4") == rat(-3, 2)
    assert rat(x, 2) == rat(-7, 6)
    with pytest.raises(TypeError):
        rat(-2.5)
    with pytest.raises(ValueError):
        parse_rat("0.5e3")


def test_parse_rat_pattern_decides_not_the_backend(monkeypatch):
    rat_module = importlib.import_module("sscurv.rat")  # sscurv.rat is the function
    monkeypatch.setattr(rat_module, "Rat", lambda p, q: (p, q))  # a backend taking anything
    assert parse_rat(" -3/4 ") == (-3, 4) and parse_rat("+7") == (7, 1)
    for text in ("1/-2", "1/+2", "1/\u0662", "\u0661", "0.5", "1e3", "1/2/3", "/2"):
        with pytest.raises(ValueError, match="not a rational literal"):
            parse_rat(text)


@pytest.mark.parametrize("text, value", [
    ("0.5", None), ("1e-3", None), ("1_000", None), ("\u0663", None), (" 1/2 ", Fraction(1, 2)),
])
def test_rat_reads_strings_as_the_interchange_format_does(text, value):
    if value is None:
        for build in (rat, lambda x: Tensor((UP,), 2, ["1", x]), lambda x: Tensor.vector([x])):
            with pytest.raises(ValueError, match="not a rational literal"):
                build(text)
    else:
        assert rat(text) == value
        assert Tensor((UP,), 2, ["1", text])[1] == value


def test_rationals_of_any_length_are_read_and_written_exactly():
    # 5071 and 4295 digits: CPython's str(int) and int(str) refuse the first
    # past the default limit of 4300 digits, and p * den has 9365.
    p, den = 7 ** 6000, 3 ** 9000
    nums = (p, -p * den, 0, 1, 1 - 2 * p)
    with int_str_limit_lifted():
        expected = [str(Fraction(x, den)) for x in nums]
        whole = [str(x) for x in nums]
        literal = f"-{p}/{den}"
    assert format_rats(nums, den) == expected
    assert format_rats(nums, 1) == whole
    assert format_rat(Fraction(p, den)) == expected[0]
    assert parse_rat(literal) == Fraction(-p, den) == rat(literal)
    assert parse_rat("0" * 5001 + "/" + "0" * 4000 + "3") == 0
    for text in ("1/" + "0" * 5001, "0" * 5001 + "/0"):
        with pytest.raises(ValueError, match="not a rational literal"):
            parse_rat(text)


@pytest.mark.parametrize("make, variance", [(Tensor.vector, (UP,)), (Tensor.covector, (DOWN,))])
def test_vector_and_covector_read_an_iterator_once(make, variance):
    expected = Tensor(variance, 3, [1, 2, 3])
    assert make(x for x in (1, 2, 3)) == expected
    assert make(map(rat, ("1", "2", "3"))) == expected


@given(st.integers(-50, 50), st.integers(1, 20), st.integers(-50, 50), st.integers(1, 20))
def test_rat_field_ops_exact(p1, q1, p2, q2):
    a, b = rat(p1, q1), rat(p2, q2)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) - b == a
    if b != 0:
        assert (a / b) * b == a
    s = a + b
    assert s.denominator > 0
    assert gcd(int(s.numerator), int(s.denominator)) == 1


def test_tensor_shape_checks():
    with pytest.raises(ValenceError):
        Tensor((UP,), 3, [rat(1)] * 4)
    with pytest.raises(ValenceError):
        Tensor(("x",), 3, [rat(1)] * 3)
    t = Tensor.zeros((UP, DOWN), 3)
    with pytest.raises(ValenceError):
        t[0]
    with pytest.raises(IndexError):
        t[0, 5]


def test_indexing_keeps_its_checks():
    t = Tensor.build((UP, DOWN, DOWN), DIM, lambda a, b, c: rat(a * 9 + b * 3 + c))
    assert t[2, 1, 0] == t[[2, 1, 0]] == rat(21)
    for bad_rank in ((0, 1), (0, 1, 2, 0), 0):
        with pytest.raises(ValenceError):
            t[bad_rank]
    for bad_range in ((0, -1, 2), (0, 1, DIM), (-1, 0, 0)):
        with pytest.raises(IndexError):
            t[bad_range]

    v = Tensor.vector([rat(4), rat(5), rat(6)])
    assert v[1] == v[(1,)] == rat(5)
    with pytest.raises(IndexError):
        v[-1]
    with pytest.raises(IndexError):
        v[DIM]
    with pytest.raises(ValenceError):
        Tensor.zeros((UP, DOWN), DIM)[1]
    with pytest.raises(TypeError):
        v[1.0]
    assert Tensor((), DIM, [rat(7)])[()] == rat(7)


def test_lower_vector_identity_metric():
    metric = MetricFrame.identity(DIM)
    v = Tensor.vector([0, 0, 1])
    low = v.apply_metric(metric.g, 0)
    assert low == Tensor.covector([0, 0, 1])
    # The one contraction: psi(xi) = 1, and two vectors do not contract.
    assert low.contract_with(0, v) == Tensor((), DIM, [1])
    with pytest.raises(ValenceError):
        v.contract_with(0, v)


@given(rat_tensor((UP, DOWN)), rat_tensor((UP, DOWN)))
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(rat_tensor((DOWN, DOWN)), spd_metrics())
def test_raise_lower_round_trip(t, metric):
    for slot in (0, 1):
        up = t.apply_metric(metric.g_inv, slot)
        assert up.variance[slot] == UP
        assert up.apply_metric(metric.g, slot) == t


def test_tensor_immutable():
    t = MetricFrame.identity(DIM).g
    with pytest.raises(AttributeError):
        t.dim = 4
    with pytest.raises(TypeError):
        t.nums[0] = 2


@given(st.integers(0, 4), st.integers(1, 3), st.booleans(), st.data())
def test_serialized_tensor_nests_row_major(rank, dim, kernel_built, data):
    from sscurv.report import serialize_value
    n = dim ** rank
    if kernel_built:
        # As a kernel returns it: a common factor k in nums and den, any signs.
        k = data.draw(st.integers(-12, 12).filter(bool), label="k")
        nums = data.draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n), label="nums")
        den = data.draw(st.integers(1, 30), label="den")
        t = Tensor.from_ints((UP,) * rank, dim, [k * x for x in nums], k * den)
    else:
        comps = data.draw(st.lists(small_rats, min_size=n, max_size=n))
        t = Tensor((UP,) * rank, dim, [rat(str(x)) for x in comps])

    def by_index(prefix):
        if len(prefix) == rank:
            return format_rat(t[prefix])
        return [by_index(prefix + (i,)) for i in range(dim)]

    assert serialize_value(t) == by_index(())


# -- storage: integer numerators over one positive denominator ---------------

# Denominators 1..12 make the common denominator a true lcm, not one input's.
storage_rats = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))


@st.composite
def tensor_cases(draw, max_rank=3, max_dim=3):
    """(variance, dim, Fraction components) of one shape."""
    dim = draw(st.integers(1, max_dim), label="dim")
    variance = tuple(draw(st.lists(st.sampled_from((UP, DOWN)), max_size=max_rank),
                          label="variance"))
    n = dim ** len(variance)
    return variance, dim, draw(st.lists(storage_rats, min_size=n, max_size=n))


def of(variance, dim, values):
    return Tensor(variance, dim, [rat(str(v)) for v in values])


def fractions(t):
    """The components read one at a time through t[idx], row-major."""
    return [Fraction(int(x.numerator), int(x.denominator))
            for x in map(t.__getitem__, product(range(t.dim), repeat=t.rank))]


def assert_canonical(t):
    assert t.den > 0 and gcd(t.den, *t.nums) == 1
    assert fractions(t) == [Fraction(int(x), t.den) for x in t.nums]


def flat(idx, dim):
    out = 0
    for i in idx:
        out = out * dim + i
    return out


def ref_contract(a, rank, dim, slot, b, b_rank=1, b_slot=0):
    return [sum(a[flat(r[:slot] + (m,) + r[slot:], dim)]
                * b[flat(s[:b_slot] + (m,) + s[b_slot:], dim)] for m in range(dim))
            for r in product(range(dim), repeat=rank - 1)
            for s in product(range(dim), repeat=b_rank - 1)]


def ref_permute(a, rank, dim, order):
    # Result slot s reads source slot order[s].
    out = []
    for r in product(range(dim), repeat=rank):
        src = [0] * rank
        for s, o in enumerate(order):
            src[o] = r[s]
        out.append(a[flat(src, dim)])
    return out


def ref_apply_metric(a, rank, dim, slot, g):
    return [sum(a[flat(r[:slot] + (b,) + r[slot + 1:], dim)] * g[b * dim + r[slot]]
                for b in range(dim))
            for r in product(range(dim), repeat=rank)]


@given(tensor_cases(), st.integers(-6, 6).filter(bool))
def test_storage_is_canonical_whichever_constructor(case, k):
    variance, dim, values = case
    t = of(variance, dim, values)
    assert_canonical(t)
    assert fractions(t) == values
    # The trusted constructor reduces any nonzero multiple, sign included.
    u = Tensor.from_ints(variance, dim, [k * x for x in t.nums], k * t.den)
    assert (u.nums, u.den) == (t.nums, t.den)
    zero = Tensor.zeros(variance, dim)
    assert (zero.nums, zero.den) == ((0,) * dim ** len(variance), 1)
    assert Tensor.from_ints(variance, dim, zero.nums, -k * 7) == zero


@settings(deadline=None)
@given(tensor_cases(max_rank=4, max_dim=4), st.data())
def test_algebra_matches_fraction_reference(case, data):
    variance, dim, a = case
    rank, n = len(variance), dim ** len(variance)
    b = data.draw(st.lists(storage_rats, min_size=n, max_size=n), label="b")
    f = data.draw(storage_rats, label="factor")
    ta, tb = of(variance, dim, a), of(variance, dim, b)
    results = [
        (ta + tb, [x + y for x, y in zip(a, b)]),
        (ta - tb, [x - y for x, y in zip(a, b)]),
        (ta + ta, [x + x for x in a]),  # equal denominators
        (-ta, [-x for x in a]),
        (ta.scale(rat(str(f))), [f * x for x in a]),
    ]
    if rank <= 2:
        results.append((ta.tensor_product(tb), [x * y for x in a for y in b]))
    for slot in range(rank):
        v = data.draw(st.lists(storage_rats, min_size=dim, max_size=dim), label="v")
        tv = of((DOWN if variance[slot] == UP else UP,), dim, v)
        results.append((ta.contract_with(slot, tv), ref_contract(a, rank, dim, slot, v)))
        g = data.draw(st.lists(storage_rats, min_size=dim * dim, max_size=dim * dim), label="g")
        tg = of((DOWN, DOWN) if variance[slot] == UP else (UP, UP), dim, g)
        results.append((ta.apply_metric(tg, slot), ref_apply_metric(a, rank, dim, slot, g)))
    # Tensor against tensor, over every slot pair of opposite variance:
    # permute brings the other's slot to the front, where contract_with reads it.
    b_variance = tuple(data.draw(st.lists(st.sampled_from((UP, DOWN)), min_size=1, max_size=3),
                                 label="b_variance"))
    b_rank = len(b_variance)
    c = data.draw(st.lists(storage_rats, min_size=dim ** b_rank, max_size=dim ** b_rank),
                  label="c")
    tc = of(b_variance, dim, c)
    for slot, b_slot in product(range(rank), range(b_rank)):
        front = tc.permute((b_slot, *(s for s in range(b_rank) if s != b_slot)))
        if variance[slot] == b_variance[b_slot]:
            with pytest.raises(ValenceError):
                ta.contract_with(slot, front)
            continue
        t = ta.contract_with(slot, front)
        assert t.variance == (variance[:slot] + variance[slot + 1:]
                              + b_variance[:b_slot] + b_variance[b_slot + 1:])
        results.append((t, ref_contract(a, rank, dim, slot, c, b_rank, b_slot)))
    for order in permutations(range(rank)):
        t = ta.permute(order)
        assert t.variance == tuple(variance[s] for s in order)
        results.append((t, ref_permute(a, rank, dim, order)))
    for t, ref in results:
        assert_canonical(t)
        assert fractions(t) == ref


def test_algebra_edge_cases_match_fraction_reference():
    """The branches of the numerator loops, each against Fractions: equal and
    unequal denominators, factors 0, 1 and -1, zero vectors and columns,
    contraction down to rank 0, and permute of ranks 0 and 1."""
    dim = 3
    a = [Fraction(x, 6) for x in range(-13, 14)]           # den 6
    same = [Fraction(5 - x, 6) for x in range(27)]         # den 6 too
    other = [Fraction(x, 4) for x in range(27)]            # den 4
    ta, t_same, t_other = (of((UP, DOWN, DOWN), dim, v) for v in (a, same, other))
    assert ta.den == t_same.den != t_other.den
    results = [
        (ta + t_same, [x + y for x, y in zip(a, same)]),
        (ta - t_same, [x - y for x, y in zip(a, same)]),
        (ta + t_other, [x + y for x, y in zip(a, other)]),
        (ta - t_other, [x - y for x, y in zip(a, other)]),
        (ta - ta, [Fraction(0)] * 27),
    ]
    for f in (0, 1, -1, Fraction(-1, 2), Fraction(6)):
        results.append((ta.scale(rat(str(f))), [f * x for x in a]))
    assert ta.scale(1).nums is ta.nums
    vectors = ([0, 0, 0], [1, 0, 0], [0, 1, 1], [-1, 2, Fraction(1, 3)])
    for slot, v in product(range(3), vectors):
        variance = (UP,) if slot else (DOWN,)
        results.append((ta.contract_with(slot, of(variance, dim, v)),
                        ref_contract(a, 3, dim, slot, v)))
    # A (1,1) other with an all-zero column and an all-zero row.
    q = [1, 0, 2, Fraction(-1, 2), 0, 0, 3, 0, 1]
    for slot in (1, 2):
        results.append((ta.contract_with(slot, of((UP, DOWN), dim, q)),
                        ref_contract(a, 3, dim, slot, q, 2, 0)))
    # Rank 1 against rank 1 is rank 0, zero vector or not; then a dim-1 contraction.
    v, w = [Fraction(1, 2), -3, 0], [4, Fraction(2, 3), 7]
    scalar = of((UP,), dim, v).contract_with(0, of((DOWN,), dim, w))
    assert scalar.variance == ()
    results.append((scalar, [sum(x * y for x, y in zip(v, w))]))
    results.append((of((UP,), dim, [0, 0, 0]).contract_with(0, of((DOWN,), dim, w)),
                    [Fraction(0)]))
    results.append((of((UP, DOWN), 1, [Fraction(3, 2)]).contract_with(1, of((UP,), 1, [4])),
                    [Fraction(6)]))
    for t in (of((), dim, [Fraction(-2, 3)]), of((DOWN,), dim, v)):
        assert t.permute(range(t.rank)) is t
        results.append((t.permute(range(t.rank)), fractions(t)))
    for t, ref in results:
        assert_canonical(t)
        assert fractions(t) == ref


def test_slot_operations_take_ranks_past_any_alphabet():
    # Slot letters run past the 52 ASCII ones; dim 1 keeps rank 70 at one entry.
    rank = 70
    wide = Tensor.from_ints((UP,) * rank, 1, (3,), 2)
    low = wide.apply_metric(Tensor.from_ints((DOWN, DOWN), 1, (5,), 1), rank - 1)
    assert low.variance == (UP,) * (rank - 1) + (DOWN,) and fractions(low) == [Fraction(15, 2)]
    both = wide.contract_with(0, low.permute(range(rank - 1, -1, -1)))
    assert both.rank == 2 * rank - 2 and fractions(both) == [Fraction(45, 4)]
    # And at dim 2, rank 7 against the reference.
    a = [Fraction(x, 3) for x in range(2 ** 7)]
    t = of((UP,) * 6 + (DOWN,), 2, a)
    order = (6, 0, 5, 1, 4, 2, 3)
    assert fractions(t.permute(order)) == ref_permute(a, 7, 2, order)
    assert fractions(t.contract_with(6, t)) == ref_contract(a, 7, 2, 6, a, 7, 0)


def test_delta_and_permute_checks():
    assert Tensor.delta(3) == Tensor.build((UP, DOWN), 3, lambda a, b: int(a == b))
    with pytest.raises(ValenceError):
        Tensor.delta(0)
    t = Tensor.zeros((UP, DOWN, DOWN), 2)
    assert t.permute((0, 1, 2)) is t
    for bad in ((0, 1), (0, 1, 1), (0, 1, 3), (0, 1, 2, 3)):
        with pytest.raises(ValenceError):
            t.permute(bad)


@pytest.mark.parametrize("operation", [
    lambda t, x: t + x,
    lambda t, x: t - x,
    lambda t, x: t.tensor_product(x),
    lambda t, x: t.contract_with(0, x),
    lambda t, x: t.apply_metric(x, 0),
], ids=["add", "sub", "tensor_product", "contract_with", "apply_metric"])
@pytest.mark.parametrize("other", [[1, 2, 3], (1, 2, 3), 2, None], ids=repr)
def test_binary_operations_refuse_a_non_tensor(operation, other):
    with pytest.raises(ValenceError, match="expected Tensor"):
        operation(Tensor.vector([1, 2, 3]), other)


@given(tensor_cases(), st.data())
def test_equality_and_hash_follow_components(case, data):
    variance, dim, a = case
    b = list(a)
    if data.draw(st.booleans(), label="perturb"):
        b[data.draw(st.integers(0, len(b) - 1))] += data.draw(storage_rats)
    ta, tb = of(variance, dim, a), of(variance, dim, b)
    assert (ta == tb) == (fractions(ta) == fractions(tb))
    if ta == tb:
        assert hash(ta) == hash(tb)
    # A kernel-built copy, reduced from a multiple, is equal and hashes equal.
    built = Tensor.from_ints(variance, dim, [3 * x for x in ta.nums], 3 * ta.den)
    assert built == ta and hash(built) == hash(ta)
    assert ta != Tensor.from_ints(variance + (UP,), dim, ta.nums * dim, ta.den)


@given(st.integers(-2, 3), st.lists(st.sampled_from((UP, DOWN, "x")), max_size=3),
       st.integers(0, 30))
def test_constructor_input_checks(dim, variance, count):
    comps = [rat(1)] * count
    if "x" in variance or dim < 1 or count != dim ** len(variance):
        with pytest.raises(ValenceError):
            Tensor(variance, dim, comps)
    else:
        assert fractions(Tensor(variance, dim, comps)) == comps
    if "x" in variance or dim < 1:
        with pytest.raises(ValenceError):
            Tensor.zeros(variance, dim)
    else:
        assert Tensor.zeros(variance, dim).is_zero()
    if count and dim >= 1 and "x" not in variance and count == dim ** len(variance):
        with pytest.raises(TypeError):
            Tensor(variance, dim, [0.5] + comps[1:])


@given(tensor_cases(), st.integers(1, 9))
def test_unread_kernel_tensor_copies_and_pickles(case, k):
    variance, dim, values = case
    t = of(variance, dim, values)
    built = Tensor.from_ints(variance, dim, [k * x for x in t.nums], k * t.den)
    for twin in (copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
        assert twin == built == t and hash(twin) == hash(t)
        assert fractions(twin) == fractions(t)


# -- the derived tensors against the index loops they replace ----------------
# Each loop below is the flat-index code a derived tensor was once written
# as, kept here, over Fractions, as the reference for its tensor expression.

def loop_wedge(n, a, q=None):
    """a_jk q^l_i - a_ik q^l_j at flat [l, k, i, j]; q=None is the Kronecker delta."""
    out = [Fraction(0)] * n ** 4
    nn = n * n
    n3 = nn * n
    for j in range(n):
        for k in range(n):
            x = a[j * n + k]
            if not x:
                continue
            for l in range(n):
                lk = l * n3 + k * nn
                if q is None:
                    if l != j:
                        out[lk + l * n + j] += x
                        out[lk + j * n + l] -= x
                    continue
                for i in range(n):
                    y = q[l * n + i]
                    if y and i != j:
                        p = x * y
                        out[lk + i * n + j] += p
                        out[lk + j * n + i] -= p
    return out


def loop_semi_symmetric_torsion(psi):
    n = len(psi)
    out = [Fraction(0)] * n ** 3
    for k in range(n):
        for j in range(n):
            if psi[j]:
                out[(k * n + k) * n + j] += psi[j]
                out[(k * n + j) * n + k] -= psi[j]
    return out


def loop_operator_derivative(q, gamma, n):
    nn = n * n
    out = [Fraction(0)] * n ** 3
    for m in range(n):
        for l in range(n):
            for x in range(n):
                a = q[m * n + x]      # Q^m_i with i = x
                if a:
                    for j in range(n):
                        b = gamma[(l * n + j) * n + m]
                        if b:
                            out[l * nn + x * n + j] += a * b
                a = q[l * n + m]      # Q^l_m against Gamma^m_ji, i = x
                if a:
                    for j in range(n):
                        b = gamma[(m * n + j) * n + x]
                        if b:
                            out[l * nn + x * n + j] -= b * a
    return out


def loop_m61_rhs(qhat, gam, d, lam, m, n):
    nn = n * n
    cov = loop_operator_derivative(qhat, gam, n)
    lam_m = lam / m
    rhs = []
    for l in range(n):
        for i in range(n):
            for j in range(n):
                total = cov[l * nn + i * n + j] - cov[l * nn + j * n + i]
                if l == i:
                    total += lam_m * d[j]
                if l == j:
                    total -= lam_m * d[i]
                total += (d[i] * qhat[l * n + j] - d[j] * qhat[l * n + i]) / m
                rhs.append(total)
    return rhs


@st.composite
def derived_inputs(draw):
    """A non-identity SPD metric in dim 1-4 with xi, Q, Gamma, a, d, lambda and m.

    Dim 1 has no plane, so every wedge is zero there; constant_sectional relies on it.
    """
    n = draw(st.integers(1, 4), label="dim")
    metric = draw(spd_metrics(dim=n).filter(lambda m: m != MetricFrame.identity(n)))

    def values(count, label):
        return draw(st.lists(small_rats, min_size=count, max_size=count), label=label)

    return (n, metric, values(n, "xi"), values(n * n, "q"), values(n ** 3, "gamma"),
            values(n * n, "a"), values(n, "d"), draw(small_rats, label="lambda"),
            draw(st.integers(-3, 3).filter(bool), label="m"))


@settings(max_examples=40, deadline=None)
@given(derived_inputs())
def test_derived_tensors_match_their_index_loops(inputs):
    n, metric, xi, q, gamma, a, d, lam, m = inputs
    tq, tgamma = of((UP, DOWN), n, q), of((UP, DOWN, DOWN), n, gamma)
    ta, td = of((DOWN, DOWN), n, a), of((DOWN,), n, d)
    g = fractions(metric.g)
    dist = DistinguishedField.from_xi(of((UP,), n, xi), metric)
    cases = [
        (wedge(metric.g), loop_wedge(n, g)),
        (wedge(ta), loop_wedge(n, a)),
        (wedge(metric.g, tq), loop_wedge(n, g, q)),
        (wedge(ta, tq), loop_wedge(n, a, q)),
        (semi_symmetric_torsion(dist), loop_semi_symmetric_torsion(fractions(dist.psi))),
        (operator_derivative(tq, tgamma), loop_operator_derivative(q, gamma, n)),
        (_m61_rhs(tq, tgamma, td, rat(str(lam)), m), loop_m61_rhs(q, gamma, d, lam, m, n)),
    ]
    for t, ref in cases:
        assert_canonical(t)
        assert fractions(t) == ref
    for t, _ in cases[:4]:
        assert t.variance == (UP, DOWN, DOWN, DOWN)


@st.composite
def wedge_sums(draw):
    """dim 1-4, a rank-4 base or None, and 1-3 terms (c, a, q): c an int or a
    Fraction (zero and negative included), a (0,2) and q (1,1) values or None."""
    n = draw(st.integers(1, 4), label="dim")

    def values(count):
        return draw(st.lists(small_rats, min_size=count, max_size=count))

    base = values(n ** 4) if draw(st.booleans(), label="base") else None
    terms = [(draw(st.integers(-3, 3) | small_rats), values(n * n),
              values(n * n) if draw(st.booleans(), label="q") else None)
             for _ in range(draw(st.integers(1, 3), label="terms"))]
    return n, base, terms


@given(wedge_sums())
def test_wedge_kernel_matches_its_index_loop(case):
    # The one kernel behind wedge, projective, conformal and the B3/B15/B22
    # right sides, against base + sum of c * loop_wedge over Fractions.
    n, base, terms = case
    expected = [Fraction(0)] * n ** 4 if base is None else base
    for c, a, q in terms:
        expected = [e + c * w for e, w in zip(expected, loop_wedge(n, a, q))]
    t = _wedge_sum(None if base is None else of((UP, DOWN, DOWN, DOWN), n, base),
                   [(c if isinstance(c, int) else rat(str(c)), of((DOWN, DOWN), n, a),
                     None if q is None else of((UP, DOWN), n, q)) for c, a, q in terms])
    assert t.variance == (UP, DOWN, DOWN, DOWN)
    assert_canonical(t)
    assert fractions(t) == expected


def test_wedge_refuses_wrong_shapes():
    a, q = of((DOWN, DOWN), 3, range(9)), Tensor.delta(3)
    for bad_a in (q, of((DOWN,), 3, (1, 2, 3)), of((DOWN, DOWN, DOWN), 3, [1] * 27),
                  of((UP, UP), 3, range(9))):
        with pytest.raises(ValenceError):
            wedge(bad_a)
        with pytest.raises(ValenceError):
            wedge(bad_a, q)
    for bad_q in (a, of((UP, UP), 3, range(9)), of((DOWN, UP), 3, range(9)),
                  of((UP,), 3, (1, 2, 3)), Tensor.delta(2), Tensor.delta(4),
                  of((UP, DOWN, DOWN), 3, [1] * 27)):
        with pytest.raises(ValenceError):
            wedge(a, bad_q)
    assert wedge(a, q) == wedge(a)
