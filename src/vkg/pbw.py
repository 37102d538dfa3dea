"""PBW monomials in the universal affine vertex algebra and their straightening.

A monomial is a tuple of loop generators ``(mode, base)`` with strictly
negative modes, sorted by mode ascending and then by basis index, applied to
the vacuum.  The straightening rule is the affine commutator

    [a(m), b(n)] = [a, b](m + n) + m delta_{m+n,0} k (a | b),

with x(m) vacuum = 0 for m >= 0.  Everything is exact over the rationals.

``_Engine._into`` applies that rule in one pass: it adds c * prefix . x(m)
f_1 ... f_r 1, normal-ordered, into one dict, where prefix is a sorted run.
x(m) moves right past f_1, ..., f_{j-1}, the factors before its sorted slot;
passing f_i adds prefix f_1 ... f_{i-1} [x(m), f_i] f_{i+1} ... f_r 1, by a
nested call with that longer prefix (the central part needs no reordering).
For m < 0 the pass ends with the sorted M = f_1 ... f_{j-1} x(m) f_j ... f_r,
for m >= 0 with nothing.  Only its first factor g can be smaller than the
last prefix factor.  g slides left past each prefix factor p > g with
[p, g] = 0 and (p | g) = 0 inside the loop: such a p adds no term, so terms
reach the dict in the order of one nested call per p.  At a prefix factor
<= g the term is added by concatenation; at a p > g that does not commute
with g, one nested call acts with p on g, the factors g passed and the rest
of M, and keeps the prefix before p.  Each nested call lowers
(len(prefix) + len(monomial), len(prefix)) lexicographically, so the
recursion ends.

Coefficients: inside the straightening engine a coefficient is a
``liealg.Coef``, an ``int`` whenever it is integral and a ``Fraction`` only
otherwise.  The realization supplies its bracket and form constants in that
type, so the engine lifts only the level and its input; at an integral
level every coefficient is an int.  Every coefficient that leaves the
engine, in a ``StateVector`` or a ``constraint_rows`` row, is a
``Fraction``, so no caller ever divides two ints.  ``_Engine.act_string`` is
the one product path and the engine's one public method: ``apply``,
``apply_string`` and ``_power``, which builds the formula vectors of
``vectors``, straighten through it on ``Coef`` terms.  ``_power`` builds an
engine only when two of its generators have a bracket or form entry or one
has mode >= 0; else its factors commute, and it multiplies by sorted runs.
``_state`` is the one place where a product's coefficients become Fractions.
``_raising_images`` makes ``_into``'s top-level calls for every raising
generator in one scan: of a vector for ``is_singular``, of each column for
``constraint_rows``, which files each coefficient as a Fraction, one shared
object per distinct value.  ``_kernel`` is the one constraint solve, on a
graded component for ``singular_kernel`` and on the E7 support for
``vectors.resolve_signs``.  ``_grade`` is the one grade of a product: the
sum of its generators' degrees and of their doubled int weights in
``lr.lattice``, halved once by ``_state``.
"""

from fractions import Fraction as Q
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .liealg import Coef, LieRealization, _acc, _lift
from .rootdata import Lat, Vec, _lat, vadd, vscale, vzero

Gen = Tuple[int, int]          # (mode, base index); tuple order = PBW order
Monomial = Tuple[Gen, ...]
EngineTerms = Dict[Monomial, Coef]


class CapExceededError(RuntimeError):
    """A graded component is larger than the configured size cap."""


class StateVector(NamedTuple):
    """Finite rational combination of PBW monomials at fixed weight/degree."""

    level: Q
    weight: Vec
    degree: Q
    terms: Dict[Monomial, Q]

    def is_zero(self) -> bool:
        return not self.terms

    def support_size(self) -> int:
        return len(self.terms)

    def scaled(self, c) -> "StateVector":
        c = Q(c)
        if not c:
            return StateVector(self.level, self.weight, self.degree, {})
        return StateVector(
            self.level, self.weight, self.degree,
            {m: c * v for m, v in self.terms.items()},
        )

    def at_level(self, k) -> "StateVector":
        return StateVector(Q(k), self.weight, self.degree, dict(self.terms))

    def __add__(self, other: "StateVector") -> "StateVector":
        if self.level != other.level:
            raise ValueError("cannot add states at different levels")
        if self.weight != other.weight or self.degree != other.degree:
            raise ValueError("cannot add states of different weight or degree")
        terms = dict(self.terms)
        for m, v in other.terms.items():
            _acc(terms, m, v)
        return StateVector(self.level, self.weight, self.degree, terms)


def vacuum(lr: LieRealization, k) -> StateVector:
    return StateVector(Q(k), vzero(lr.rs.ambient), Q(0), {(): Q(1)})


def proportional(a: StateVector, b: StateVector) -> Optional[Q]:
    """The scalar c with a = c * b, or None if no such scalar exists."""
    if a.is_zero():
        return Q(0)
    if b.is_zero() or set(a.terms) != set(b.terms):
        return None
    mono = next(iter(a.terms))
    c = a.terms[mono] / b.terms[mono]
    if all(a.terms[m] == c * b.terms[m] for m in a.terms):
        return c
    return None


class _Engine:
    """Normal-ordering engine for one realization at one level.

    It caches the level, as a ``Coef``, and one partner row per basis index
    a, built on first use: entry b is None when [a, b] = 0 and (a | b) = 0,
    else ([a, b] terms, (a | b)).  An image is built in one dict, which every
    nested call adds into.
    """

    def __init__(self, lr: LieRealization, k: Q):
        self.lr = lr
        self.k = _lift(Q(k))
        self._rows: List[Optional[list]] = [None] * lr.dim

    def _row(self, a: int) -> list:
        brackets, forms = self.lr.bracket_table, self.lr.form_table
        row = self._rows[a] = [
            (brackets.get((a, b), ()), forms.get((a, b), 0))
            if (a, b) in brackets or (a, b) in forms else None
            for b in range(self.lr.dim)]
        return row

    def act_string(self, gens: Sequence[Gen],
                   terms: EngineTerms) -> EngineTerms:
        """Normal-ordered image of the product of gens on a combination,
        rightmost factor first, with ``Coef`` values."""
        for gen in reversed(gens):
            out: EngineTerms = {}
            for mono, coef in terms.items():
                self._into(out, (), gen, mono, _lift(coef))
            terms = out
        return terms

    def _into(self, out: EngineTerms, prefix: Monomial, gen: Gen,
              mono: Monomial, c: Coef) -> None:
        """Add c * prefix . gen . mono, normal-ordered, into out.

        prefix . mono is sorted, or else gen is a prefix factor that did not
        fit before mono[0] and stops before mono[1]: heads stay sorted.
        """
        mode, base = gen
        row = self._rows[base] or self._row(base)
        for slot, y in enumerate(mono):
            if gen <= y:
                break
            pair = row[y[1]]
            if pair is None:
                continue
            brackets, form = pair
            new_mode = mode + y[0]
            central = form and new_mode == 0
            if brackets or central:
                head, rest = prefix + mono[:slot], mono[slot + 1:]
                for idx, coef in brackets:
                    self._into(out, head, (new_mode, idx), rest, c * coef)
                if central:
                    _acc(out, head + rest, c * mode * self.k * form)
        else:
            if mode >= 0:
                return
            slot = len(mono)
        mono = mono[:slot] + (gen,) + mono[slot:]
        first, j = mono[0], len(prefix)
        while j and (p := prefix[j - 1]) > first:
            if (self._rows[p[1]] or self._row(p[1]))[first[1]] is not None:
                self._into(out, prefix[:j - 1], p,
                           (first,) + prefix[j:] + mono[1:], c)
                return
            j -= 1
        if j < len(prefix):
            mono = (first,) + prefix[j:] + mono[1:]
        _acc(out, prefix[:j] + mono, c)


def _grade(lr: LieRealization, gens: Sequence[Gen]) -> Tuple[Lat, int]:
    """The (doubled int weight, conformal degree) that a product adds."""
    zero, lat = (0,) * lr.rs.ambient, lr.lattice
    return (tuple(map(sum, zip(zero, *(lat[b] for _, b in gens)))),
            -sum(mode for mode, _ in gens))


def _state(lr: LieRealization, gens: Sequence[Gen], v: StateVector,
           image: EngineTerms) -> StateVector:
    """The state gens . v, from its engine image: the one place where the
    coefficients of a product become Fractions."""
    lat, degree = _grade(lr, gens)
    weight = vadd(v.weight, tuple(Q(x, 2) for x in lat))
    return StateVector(v.level, weight, v.degree + degree,
                       {m: Q(c) for m, c in image.items()})


def apply(lr: LieRealization, gen: Gen, v: StateVector) -> StateVector:
    """Normal-ordered image of x(n) v, for gen = (n, index of x); pure, exact."""
    return apply_string(lr, (gen,), v)


def apply_string(lr: LieRealization, gens: Sequence[Gen],
                 v: StateVector) -> StateVector:
    """Apply a product of loop generators, rightmost factor first.

    One straightening engine, with one table of constants, serves them all.
    """
    return _state(lr, gens, v, _Engine(lr, v.level).act_string(gens, v.terms))


def _power(lr: LieRealization,
           summands: Iterable[Tuple[Coef, Sequence[Gen]]], level, n: int = 1,
           weight: Optional[Vec] = None, degree: Optional[int] = None,
           cap: Optional[int] = None) -> StateVector:
    """(sum of coef * product of loop generators)^n 1 at the given level.

    The one construction path of the formula vectors.  With a cap, the
    (weight, degree) component is counted first and refused when larger,
    before ``summands`` is read, so a lazy iterable of summands is not built
    for a refused component; with a weight and degree, the result must land
    in that component.  The summands must share one ``_grade``.  Each power
    is summed into one dict of engine coefficients.  Generators of negative
    mode that pairwise have neither a bracket nor a form entry commute: then
    a summand times a monomial is the sorted run of both, and no engine is
    built; else (B3's ``w1``) the engine straightens it."""
    if cap is not None and component_size(lr, weight, degree, cap) is None:
        raise CapExceededError(f"graded component at degree {degree} "
                               f"exceeds cap {cap}")
    summands = [(_lift(coef), tuple(gens)) for coef, gens in summands]
    if not summands:
        raise ValueError("operator has no summands")
    if len({_grade(lr, gens) for _, gens in summands}) > 1:
        raise ValueError("summands differ in weight or degree")
    brackets, forms = lr.bracket_table, lr.form_table
    used = {g for _, gens in summands for g in gens}
    commuting = all(mode < 0 and (a, b) not in brackets and (a, b) not in forms
                    for mode, a in used for _, b in used)
    engine = None if commuting else _Engine(lr, level)
    terms: EngineTerms = {(): 1}
    for _ in range(n):
        total: EngineTerms = {}
        for coef, gens in summands:
            for mono, c in (((tuple(sorted(m + gens)), c) for m, c in
                             terms.items()) if commuting
                            else engine.act_string(gens, terms).items()):
                _acc(total, mono, coef * c)
        terms = total
    v = _state(lr, summands[0][1] * n, vacuum(lr, level), terms)
    if weight is not None and (v.weight, v.degree) != (weight, degree):
        raise ValueError("vector landed outside its weight and degree")
    return v


def raising_generators(lr: LieRealization) -> List[Tuple[str, Gen]]:
    """The singularity test set: e_alpha(0) for simple alpha, and e_-theta(1)."""
    rs = lr.rs
    gens = [(f"e[{_root_str(a)}](0)", (0, lr.e(a))) for a in rs.simple_roots]
    gens.append(
        (f"e[{_root_str(vscale(-1, rs.theta))}](1)",
         (1, lr.e(vscale(-1, rs.theta))))
    )
    return gens


def _root_str(a: Vec) -> str:
    return ",".join(str(x) for x in a)


def is_singular(lr: LieRealization, v: StateVector):
    """True iff every raising generator kills v; else (False, witness).

    The witness is the pair (generator label, first nonvanishing image).
    """
    if v.is_zero():
        raise ValueError("is_singular needs a nonzero vector")
    raising = raising_generators(lr)
    (images,) = _raising_images(_Engine(lr, v.level), raising, [v.terms])
    for (label, gen), image in zip(raising, images):
        if image:
            return False, (label, _state(lr, (gen,), v, image))
    return True, None


def _raising_images(engine: _Engine, raising: List[Tuple[str, Gen]],
                    combinations: Iterable[EngineTerms]):
    """Per combination, the raising images from one scan: at mode >= 0 a
    top-level ``_into`` acts only at slots whose base has a partner entry."""
    table: List[list] = [[] for _ in range(engine.lr.dim)]
    for gidx, (_, (mode, base)) in enumerate(raising):
        for b, pair in enumerate(engine._rows[base] or engine._row(base)):
            if pair is not None:
                table[b].append((gidx, mode, *pair))
    for terms in combinations:
        images: List[EngineTerms] = [{} for _ in raising]
        for mono, c in terms.items():
            c = _lift(c)
            for slot, (y_mode, y_base) in enumerate(mono):
                head, rest = mono[:slot], mono[slot + 1:]
                for gidx, mode, brackets, form in table[y_base]:
                    new, out = mode + y_mode, images[gidx]
                    for idx, coef in brackets:
                        engine._into(out, head, (new, idx), rest, c * coef)
                    if form and new == 0:
                        _acc(out, head + rest, c * mode * engine.k * form)
        yield images


# ---------------------------------------------------------------------------
# Graded components


def graded_basis(lr: LieRealization, weight: Vec, degree: int,
                 cap: Optional[int] = None) -> List[Monomial]:
    """All normal-ordered monomials of the given weight and conformal degree.

    Deterministic order (lexicographic in the generator stream); raises
    CapExceededError when a cap is given and the component is larger.
    """
    out: List[Monomial] = []
    _search(lr, weight, degree, cap, out)
    return out


def component_size(lr: LieRealization, weight: Vec, degree: int,
                   cap: int) -> Optional[int]:
    """Size of the graded component, or None if it exceeds the cap.

    Counts without listing: the search of ``graded_basis`` with subtree
    counts memoized, stopped as soon as the monomials found exceed the cap.
    """
    try:
        return _search(lr, weight, degree, cap, None)
    except CapExceededError:
        return None


# ``_search`` recurses once per generator of a monomial, so up to ``degree``
# frames deep; this keeps it well inside Python's default recursion limit.
MAX_SEARCH_DEGREE = 500


def _search(lr: LieRealization, weight: Vec, degree: int,
            cap: Optional[int], out: Optional[List[Monomial]]) -> int:
    """Walk the monomials of a graded component and return how many there are.

    With a list, every monomial is appended to it; without one, the count of
    the subtree under each (walk index, remaining degree, weight so far) is
    memoized.  The running total never exceeds the size of the component,
    so passing the cap proves it too large.  The walk runs on the doubled
    int weights of ``lr.lattice``, each generator weight stored as its
    nonzero (coordinate, value) pairs.  A monomial is a walk-nondecreasing
    sequence of the generators that can occur: those of mode -m and weight
    w with |target - w|_1 <= (degree - m) * max_mass, the mass prune below
    applied once at the root, which holds at every depth.  They are walked
    mode-major, most negative first, so the modes that fit start at one
    index; within a mode, by the first coordinate they move, taking
    coordinates by increasing |target| (ties by index; the zero weight
    moves none and comes last), then by basis index.  So the least-demanded
    coordinates are settled first.  Two prunes and one lookup:

    - in the generator loop, the mass ``need`` (the L1 distance to the
      target) is updated from the sparse pairs, and a generator is skipped,
      before it touches ``cur`` or recurses, when ``need`` exceeds what the
      degree left after it can reach (``left * max_mass``);
    - at node entry, a coordinate that the generators from ``start`` on
      cannot move to the target in the remaining degree cuts the node.
      Each factor left is one of them and adds at least 1 to the degree,
      so ``reach``, the suffix maxima of the steps up and down over the
      walk, bounds the move per unit of degree in any walk order;
    - at one degree left, the last factor has mode -1 and weight target -
      cur, so it is looked up, not searched: a dict maps each doubled
      generator weight to its mode -1 walk indices in ascending order (the
      Cartan elements share the zero weight), and the indices from
      ``start`` on close the monomial with one ``proven``.

    Each listed monomial is its factors in PBW order, and the list is sorted
    once at the end.  Monomials of one degree are never prefixes of one
    another, so that is the lexicographic order of the generator stream.
    """
    dim = lr.rs.ambient
    if len(weight) != dim:
        raise ValueError(f"weight has {len(weight)} coordinates, not the "
                         f"{dim} of the ambient space")
    if degree != int(degree):
        raise ValueError(f"degree {degree} is not an integer")
    degree = int(degree)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree > MAX_SEARCH_DEGREE:
        raise ValueError(f"degree {degree} exceeds the search depth bound "
                         f"{MAX_SEARCH_DEGREE}")
    if any((2 * x).denominator != 1 for x in weight):
        return 0    # off the doubled lattice that every root lies in
    target = _lat(weight)
    wints = lr.lattice
    max_mass = max((sum(abs(c) for c in w) for w in wints), default=0)
    demand = sorted(range(dim), key=lambda c: (abs(target[c]), c))
    order = sorted(range(lr.dim), key=lambda b: (
        next((r for r, c in enumerate(demand) if wints[b][c]), dim), b))
    miss = [sum(abs(t - x) for t, x in zip(target, w)) for w in wints]
    walk: List[Gen] = []
    fit = [0] * (degree + 1)    # fit[r]: where the modes >= -r start
    for mode in range(-degree, 0):
        fit[-mode] = len(walk)
        walk += [(mode, b) for b in order
                 if miss[b] <= (degree + mode) * max_mass]
    # reach[i][c]: the largest step up and down of coordinate c over walk[i:]
    reach = [((0,) * dim, (0,) * dim)]
    for _, b in reversed(walk):
        up, down = reach[-1]
        w = wints[b]
        reach.append((tuple(map(max, up, w)),
                      tuple(max(d, -x) for d, x in zip(down, w))))
    reach.reverse()
    sparse = [tuple((c, x) for c, x in enumerate(w) if x) for w in wints]
    by_weight: Dict[Tuple[int, ...], List[int]] = {}
    for i, (mode, b) in enumerate(walk):
        if mode == -1:
            by_weight.setdefault(wints[b], []).append(i)
    stack: List[Gen] = []
    cur = [0] * dim
    memo: Dict[Tuple[int, int, Tuple[int, ...]], int] = {}
    found = 0

    def proven(n: int) -> None:
        nonlocal found
        found += n
        if cap is not None and found > cap:
            raise CapExceededError(f"graded component exceeds cap {cap}")

    def rec(start: int, remaining: int, need: int) -> int:
        if remaining == 0:
            if need:
                return 0
            if out is not None:
                out.append(tuple(sorted(stack)))
            proven(1)
            return 1
        # generators of mode below -remaining do not fit
        start = max(start, fit[remaining])
        up, down = reach[start]
        for c in range(dim):
            d = target[c] - cur[c]
            if d > remaining * up[c] or -d > remaining * down[c]:
                return 0
        if remaining == 1:
            # the last factor has mode -1 and weight target - cur
            last = [i for i in by_weight.get(
                tuple(t - x for t, x in zip(target, cur)), ()) if i >= start]
            if out is not None:
                out.extend(tuple(sorted((*stack, walk[i]))) for i in last)
            proven(len(last))
            return len(last)
        if out is None:
            key = (start, remaining, tuple(cur))
            count = memo.get(key)
            if count is not None:
                proven(count)
                return count
        count = 0
        for gi in range(start, len(walk)):
            mode, b = walk[gi]
            left = remaining + mode
            w = sparse[b]
            after = need
            for c, x in w:
                d = target[c] - cur[c]
                after += abs(d - x) - abs(d)
            if after > left * max_mass:
                continue
            for c, x in w:
                cur[c] += x
            stack.append((mode, b))
            count += rec(gi, left, after)
            stack.pop()
            for c, x in w:
                cur[c] -= x
        if out is None:
            memo[key] = count
        return count

    count = rec(0, degree, sum(abs(t) for t in target))
    if out is not None:
        out.sort()
    return count


def constraint_rows(engine: _Engine,
                    monomials: Sequence[Monomial]) -> List[linalg.Row]:
    """The raising-operator constraints on combinations of the monomials.

    Column j stands for monomials[j]; there is one row per pair (raising
    generator, monomial of its image), so the kernel of the stacked rows is
    the set of combinations that every raising generator kills.  Each
    distinct engine coefficient becomes a Fraction once per call, and every
    entry of that value shares the one immutable object.
    """
    raising = raising_generators(engine.lr)
    rows: List[dict] = [{} for _ in raising]
    fractions: Dict[Coef, Q] = {}
    images = _raising_images(engine, raising, ({m: 1} for m in monomials))
    for col, col_images in enumerate(images):
        for gen_rows, image in zip(rows, col_images):
            for imono, c in image.items():
                q = fractions.get(c)
                if q is None:
                    q = fractions[c] = Q(c)
                gen_rows.setdefault(imono, {})[col] = q
    return [row for gen_rows in rows for row in gen_rows.values()]


class Kernel(List[StateVector]):
    """The kernel basis of one graded component, and the component's size."""

    def __init__(self, vectors: Sequence[StateVector], component_dimension: int):
        super().__init__(vectors)
        self.component_dimension = component_dimension


def singular_kernel(lr: LieRealization, k, weight: Vec, degree: int,
                    cap: Optional[int] = None) -> Kernel:
    """Basis of the joint kernel of all raising generators on a component.

    Brute force: enumerate the component, assemble the stacked constraint
    matrix exactly, and eliminate.  An empty list means no singular vectors.
    """
    basis = graded_basis(lr, weight, degree, cap=cap)
    if not basis:
        return Kernel([], 0)
    return _kernel(lr, k, weight, degree, basis)


def _kernel(lr: LieRealization, k, weight: Vec, degree: int,
            basis: Sequence[Monomial]) -> Kernel:
    """The combinations of the basis monomials, all of one weight and
    degree, that every raising generator kills: the one constraint solve."""
    k = Q(k)
    kernel = linalg.nullspace(constraint_rows(_Engine(lr, k), basis),
                              len(basis))
    return Kernel([StateVector(k, weight, Q(degree),
                               {basis[c]: val for c, val in vecdict.items()})
                   for vecdict in kernel], len(basis))
