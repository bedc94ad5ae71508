"""Decision procedures for workflow guards and guidebook constraints.

One procedure decides Boolean structure: a Tseitin encoding into
clauses, solved by DPLL. Propositional variables are clause variables.
Each linear integer atom is normalised to one bound sum + c <= 0 whose
integer complement -sum - c + 1 <= 0 is its negated literal; = is a
pair of opposite bounds and != the negation of that pair.

The bounds asserted by a DPLL model form one conjunct, decided over
the integers by integer-exact equality elimination (gcd test plus
substitution), Fourier-Motzkin elimination over the rationals, and
branch-and-bound inside the rational bounds. A conjunct with no
integer point is blocked by a deletion-minimal infeasible subset of
its literals, and DPLL runs again.

Sat results always carry a model and the model is re-checked against
the original formulas before it is returned. When the integer search
is rationally feasible but unbounded and no integer point turns up
inside the search radius, or a budget runs out, the result is Unknown,
never a wrong Unsat.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd

from . import sexpr
from .sexpr import Integer, SList, Symbol

DEFAULT_VAR_CAP = 64
DEFAULT_RADIUS = 10**6
DEFAULT_NODE_BUDGET = 400_000
DNF_LIMIT = 4096  # theory checks per call, one per conjunct or core trial

COMPARISONS = ("<", ">", "<=", ">=", "=", "!=")


class SolverError(Exception):
    pass


class UnboundVariable(SolverError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable {name!r}")
        self.name = name


class TooManyVariables(SolverError):
    def __init__(self, count: int, cap: int):
        super().__init__(f"{count} variables exceeds cap {cap}")
        self.count = count
        self.cap = cap


class NotUnsat(SolverError):
    pass


# ---------------------------------------------------------------- terms


@dataclass(frozen=True)
class LinTerm:
    """Integer linear combination: sum of coeff*var plus a constant."""

    coeffs: tuple = ()
    const: int = 0

    @staticmethod
    def of(mapping=None, const=0) -> "LinTerm":
        items = tuple(sorted((v, c) for v, c in (mapping or {}).items() if c != 0))
        return LinTerm(items, const)

    def as_dict(self) -> dict:
        return dict(self.coeffs)


@dataclass(frozen=True)
class LinearConstraint:
    op: str
    lhs: LinTerm
    rhs: LinTerm

    def __post_init__(self):
        if self.op not in COMPARISONS:
            raise ValueError(f"unknown comparison {self.op!r}")


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Not:
    inner: object


@dataclass(frozen=True)
class And:
    items: tuple

    def __init__(self, items=()):
        object.__setattr__(self, "items", tuple(items))


@dataclass(frozen=True)
class Or:
    items: tuple

    def __init__(self, items=()):
        object.__setattr__(self, "items", tuple(items))


@dataclass(frozen=True)
class Implies:
    left: object
    right: object


@dataclass(frozen=True)
class Atom:
    constraint: LinearConstraint


@dataclass(frozen=True)
class BoolConst:
    value: bool


@dataclass(frozen=True)
class SatResult:
    status: str
    model: dict | None = None
    int_model: dict | None = None
    reason: str | None = None

    @property
    def is_sat(self):
        return self.status == "sat"

    @property
    def is_unsat(self):
        return self.status == "unsat"

    @property
    def is_unknown(self):
        return self.status == "unknown"


def sat(model=None, int_model=None) -> SatResult:
    return SatResult("sat", dict(model or {}), dict(int_model or {}))


def unsat() -> SatResult:
    return SatResult("unsat")


def unknown(reason: str) -> SatResult:
    return SatResult("unknown", reason=reason)


# ------------------------------------------------------- formula text


def _term_from_sexpr(node) -> LinTerm:
    if isinstance(node, Integer):
        return LinTerm.of({}, node.value)
    if isinstance(node, Symbol):
        return LinTerm.of({node.text: 1}, 0)
    if isinstance(node, SList) and len(node) >= 1 and isinstance(node[0], Symbol):
        head = node[0].text
        args = [_term_from_sexpr(a) for a in node.items[1:]]
        if head == "+":
            return _add_terms(args)
        if head == "-":
            if len(args) == 1:
                return _scale(args[0], -1)
            rest = _add_terms(args[1:])
            return _add_terms([args[0], _scale(rest, -1)])
        if head == "*":
            if len(args) != 2:
                raise SolverError("* takes two arguments")
            a, b = args
            if not a.coeffs:
                return _scale(b, a.const)
            if not b.coeffs:
                return _scale(a, b.const)
            raise SolverError("nonlinear product in term")
    raise SolverError(f"not a linear term: {sexpr.print_canonical(node)}")


def _add_terms(terms) -> LinTerm:
    coeffs: dict = {}
    const = 0
    for t in terms:
        const += t.const
        for v, c in t.coeffs:
            coeffs[v] = coeffs.get(v, 0) + c
    return LinTerm.of(coeffs, const)


def _scale(t: LinTerm, k: int) -> LinTerm:
    return LinTerm.of({v: c * k for v, c in t.coeffs}, t.const * k)


def formula_from_sexpr(node):
    """Read a formula from its list form: (implies a b), (and ...),
    (or ...), (not x), comparisons over linear terms, bare symbols as
    boolean variables, true/false constants."""
    if isinstance(node, Symbol):
        if node.text == "true":
            return BoolConst(True)
        if node.text == "false":
            return BoolConst(False)
        return Var(node.text)
    if isinstance(node, SList) and len(node) >= 1 and isinstance(node[0], Symbol):
        head = node[0].text
        rest = node.items[1:]
        if head == "and":
            return And([formula_from_sexpr(x) for x in rest])
        if head == "or":
            return Or([formula_from_sexpr(x) for x in rest])
        if head == "not":
            if len(rest) != 1:
                raise SolverError("not takes one argument")
            return Not(formula_from_sexpr(rest[0]))
        if head == "implies":
            if len(rest) != 2:
                raise SolverError("implies takes two arguments")
            return Implies(formula_from_sexpr(rest[0]), formula_from_sexpr(rest[1]))
        if head in COMPARISONS or head == "distinct":
            if len(rest) != 2:
                raise SolverError(f"{head} takes two arguments")
            op = "!=" if head == "distinct" else head
            return Atom(LinearConstraint(op, _term_from_sexpr(rest[0]), _term_from_sexpr(rest[1])))
    raise SolverError(f"not a formula: {sexpr.print_canonical(node)}")


def _term_to_sexpr(t: LinTerm):
    parts = []
    for v, c in t.coeffs:
        if c == 1:
            parts.append(Symbol(v))
        else:
            parts.append(SList([Symbol("*"), Integer(c), Symbol(v)]))
    if t.const != 0 or not parts:
        parts.append(Integer(t.const))
    if len(parts) == 1:
        return parts[0]
    return SList([Symbol("+")] + parts)


def formula_to_sexpr(f):
    if isinstance(f, Var):
        return Symbol(f.name)
    if isinstance(f, BoolConst):
        return Symbol("true" if f.value else "false")
    if isinstance(f, Not):
        return SList([Symbol("not"), formula_to_sexpr(f.inner)])
    if isinstance(f, And):
        return SList([Symbol("and")] + [formula_to_sexpr(x) for x in f.items])
    if isinstance(f, Or):
        return SList([Symbol("or")] + [formula_to_sexpr(x) for x in f.items])
    if isinstance(f, Implies):
        return SList([Symbol("implies"), formula_to_sexpr(f.left), formula_to_sexpr(f.right)])
    if isinstance(f, Atom):
        c = f.constraint
        return SList([Symbol(c.op), _term_to_sexpr(c.lhs), _term_to_sexpr(c.rhs)])
    raise TypeError(f"not a formula: {f!r}")


def format_formula(f) -> str:
    return sexpr.print_canonical(formula_to_sexpr(f))


# ------------------------------------------------------ ground eval


def eval_term(t: LinTerm, int_env) -> int:
    total = t.const
    for v, c in t.coeffs:
        if v not in int_env:
            raise UnboundVariable(v)
        total += c * int_env[v]
    return total


def _eval_constraint(c: LinearConstraint, int_env) -> bool:
    l = eval_term(c.lhs, int_env)
    r = eval_term(c.rhs, int_env)
    return {
        "<": l < r,
        ">": l > r,
        "<=": l <= r,
        ">=": l >= r,
        "=": l == r,
        "!=": l != r,
    }[c.op]


def eval_ground(f, env, int_env) -> bool:
    """Evaluate a formula under total assignments. Missing variables
    are a hard error, never a default."""
    if isinstance(f, BoolConst):
        return f.value
    if isinstance(f, Var):
        if f.name not in env:
            raise UnboundVariable(f.name)
        return bool(env[f.name])
    if isinstance(f, Not):
        return not eval_ground(f.inner, env, int_env)
    if isinstance(f, And):
        return all(eval_ground(x, env, int_env) for x in f.items)
    if isinstance(f, Or):
        return any(eval_ground(x, env, int_env) for x in f.items)
    if isinstance(f, Implies):
        return (not eval_ground(f.left, env, int_env)) or eval_ground(f.right, env, int_env)
    if isinstance(f, Atom):
        return _eval_constraint(f.constraint, int_env)
    raise TypeError(f"not a formula: {f!r}")


def prop_vars(f, acc=None) -> set:
    acc = set() if acc is None else acc
    if isinstance(f, Var):
        acc.add(f.name)
    elif isinstance(f, Not):
        prop_vars(f.inner, acc)
    elif isinstance(f, (And, Or)):
        for x in f.items:
            prop_vars(x, acc)
    elif isinstance(f, Implies):
        prop_vars(f.left, acc)
        prop_vars(f.right, acc)
    return acc


def int_vars(f, acc=None) -> set:
    acc = set() if acc is None else acc
    if isinstance(f, Atom):
        for v, _ in f.constraint.lhs.coeffs:
            acc.add(v)
        for v, _ in f.constraint.rhs.coeffs:
            acc.add(v)
    elif isinstance(f, Not):
        int_vars(f.inner, acc)
    elif isinstance(f, (And, Or)):
        for x in f.items:
            int_vars(x, acc)
    elif isinstance(f, Implies):
        int_vars(f.left, acc)
        int_vars(f.right, acc)
    return acc


def has_atoms(f) -> bool:
    if isinstance(f, Atom):
        return True
    if isinstance(f, Not):
        return has_atoms(f.inner)
    if isinstance(f, (And, Or)):
        return any(has_atoms(x) for x in f.items)
    if isinstance(f, Implies):
        return has_atoms(f.left) or has_atoms(f.right)
    return False


# ------------------------------------------------ boolean structure


def _complement(bound):
    """Over the integers, not (s + c <= 0) is -s - c + 1 <= 0."""
    coeffs, const = bound
    return tuple((v, -k) for v, k in coeffs), 1 - const


def _tseitin(formulas, fresh):
    """CNF encoding; returns clauses over int literals and the var map,
    keyed ("v", name) for propositional variables and ("a", bound) for
    arithmetic atoms. A bound and its complement share one variable."""
    lit_of: dict = {}
    clauses: list = []

    def key_lit(key) -> int:
        if key not in lit_of:
            lit_of[key] = next(fresh)
        return lit_of[key]

    def bound_lit(coeffs, const) -> int:
        coeffs, const = _tighten_le(coeffs, const)
        if not coeffs:
            return encode(BoolConst(const <= 0))
        bound = (tuple(sorted(coeffs.items())), const)
        negated = ("a", _complement(bound))
        if negated in lit_of:
            return -lit_of[negated]
        return key_lit(("a", bound))

    def encode(f) -> int:
        if isinstance(f, Var):
            return key_lit(("v", f.name))
        if isinstance(f, Atom):
            c = f.constraint
            if c.op in ("=", "!="):
                both = And([Atom(LinearConstraint("<=", c.lhs, c.rhs)),
                            Atom(LinearConstraint(">=", c.lhs, c.rhs))])
                return encode(both if c.op == "=" else Not(both))
            return bound_lit(*_norm_constraint(c))
        if isinstance(f, BoolConst):
            p = next(fresh)
            clauses.append([p] if f.value else [-p])
            return p
        if isinstance(f, Not):
            return -encode(f.inner)
        if isinstance(f, Implies):
            return encode(Or([Not(f.left), f.right]))
        if isinstance(f, And):
            parts = [encode(x) for x in f.items]
            p = next(fresh)
            for q in parts:
                clauses.append([-p, q])
            clauses.append([p] + [-q for q in parts])
            return p
        if isinstance(f, Or):
            parts = [encode(x) for x in f.items]
            p = next(fresh)
            for q in parts:
                clauses.append([-q, p])
            clauses.append([-p] + parts)
            return p
        raise TypeError(f"not a formula: {f!r}")

    for f in formulas:
        clauses.append([encode(f)])
    return clauses, lit_of


def _propagate(clauses, assignment):
    """Set unit literals in assignment until none is left. Returns the
    clauses not yet satisfied, or None on a conflict."""
    while True:
        units: dict = {}
        simplified = []
        for clause in clauses:
            live = []
            for lit in clause:
                val = assignment.get(abs(lit))
                if val is None:
                    live.append(lit)
                elif (lit > 0) == val:
                    break
            else:
                if not live:
                    return None
                if len(live) == 1:
                    var, val = abs(live[0]), live[0] > 0
                    if units.setdefault(var, val) != val:
                        return None
                simplified.append(live)
        clauses = simplified
        if not units:
            return clauses
        assignment.update(units)


def _dpll(clauses, assignment) -> dict | None:
    assignment = dict(assignment)
    clauses = _propagate(clauses, assignment)
    if clauses is None:
        return None
    if not clauses:
        return assignment
    pick = abs(clauses[0][0])
    for choice in (True, False):
        result = _dpll(clauses, {**assignment, pick: choice})
        if result is not None:
            return result
    return None


# ------------------------------------------------- integer conjuncts


class _Budget(Exception):
    pass


def _diff(c: LinearConstraint) -> tuple:
    """Return (coeffs dict, const) for lhs - rhs."""
    coeffs = c.lhs.as_dict()
    for v, k in c.rhs.coeffs:
        coeffs[v] = coeffs.get(v, 0) - k
    return {v: k for v, k in coeffs.items() if k != 0}, c.lhs.const - c.rhs.const


def _norm_constraint(c: LinearConstraint):
    """Normalize an inequality to (coeffs, const) meaning
    sum+const <= 0. Strict ops shift by one: all variables are
    integers so t < 0 is t <= -1."""
    coeffs, const = _diff(c)
    if c.op == "<":
        return coeffs, const + 1
    if c.op == "<=":
        return coeffs, const
    if c.op == ">":
        return {v: -k for v, k in coeffs.items()}, -const + 1
    if c.op == ">=":
        return {v: -k for v, k in coeffs.items()}, -const
    raise SolverError(f"cannot normalize {c.op}")


def _tighten_le(coeffs, const):
    """Divide by the gcd of the coefficients, flooring the constant.
    Sound over the integers and sharpens rational-only bounds."""
    if not coeffs:
        return coeffs, const
    g = 0
    for k in coeffs.values():
        g = gcd(g, abs(k))
    if g > 1:
        # sum + const <= 0 is sum <= -const; dividing needs
        # floor(-const/g) on the right, i.e. ceil on this side.
        coeffs = {v: k // g for v, k in coeffs.items()}
        const = ceil(Fraction(const, g))
    return coeffs, const


def _substitute(coeffs, const, var, sub_coeffs, sub_const):
    """Replace var with sub (a linear form) inside coeffs/const."""
    if var not in coeffs:
        return coeffs, const
    k = coeffs[var]
    out = {v: c for v, c in coeffs.items() if v != var}
    for v, c in sub_coeffs.items():
        out[v] = out.get(v, 0) + k * c
    out = {v: c for v, c in out.items() if c != 0}
    return out, const + k * sub_const


def _ext_gcd(a: int, b: int):
    if b == 0:
        return a, 1, 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


class _Conjunct:
    def __init__(self, eqs, les):
        self.eqs = eqs    # list of (coeffs, const) meaning = 0
        self.les = les    # list of (coeffs, const) meaning <= 0
        self.subs = []    # (var, coeffs, const): var = coeffs.vars + const
        self.fresh = itertools.count()

    def _fresh_var(self) -> str:
        return f".t{next(self.fresh)}"

    def apply_sub(self, var, coeffs, const):
        self.subs.append((var, dict(coeffs), const))
        self.eqs = [_substitute(c, k, var, coeffs, const) for c, k in self.eqs]
        self.les = [_substitute(c, k, var, coeffs, const) for c, k in self.les]

    def eliminate_equalities(self):
        """Integer-exact elimination. Returns False when the equality
        system alone is unsatisfiable (gcd divisibility test)."""
        pending = list(self.eqs)
        self.eqs = []
        while pending:
            coeffs, const = pending.pop(0)
            coeffs = {v: k for v, k in coeffs.items() if k != 0}
            if not coeffs:
                if const != 0:
                    return False
                continue
            g = 0
            for k in coeffs.values():
                g = gcd(g, abs(k))
            if const % g != 0:
                return False
            coeffs = {v: k // g for v, k in coeffs.items()}
            const //= g
            unit = next((v for v, k in coeffs.items() if abs(k) == 1), None)
            if unit is not None:
                k = coeffs[unit]
                rest = {v: c for v, c in coeffs.items() if v != unit}
                if k == 1:
                    sub_coeffs = {v: -c for v, c in rest.items()}
                    sub_const = -const
                else:
                    sub_coeffs = dict(rest)
                    sub_const = const
                self.apply_sub(unit, sub_coeffs, sub_const)
                pending = [_substitute(c, kk, unit, sub_coeffs, sub_const) for c, kk in pending]
                continue
            if len(coeffs) == 2:
                (xa, a), (xb, b) = sorted(coeffs.items())
                g2, u, v = _ext_gcd(abs(a), abs(b))
                u *= 1 if a > 0 else -1
                v *= 1 if b > 0 else -1
                # a*u + b*v = 1, so a*(-const*u) + b*(-const*v) = -const
                t = self._fresh_var()
                self.apply_sub(xa, {t: b}, -const * u)
                self.apply_sub(xb, {t: -a}, -const * v)
                pending = [_substitute(c, kk, xa, {t: b}, -const * u) for c, kk in pending]
                pending = [_substitute(c, kk, xb, {t: -a}, -const * v) for c, kk in pending]
                continue
            # Three or more variables, none with a unit coefficient:
            # fold one coefficient pair into a fresh variable via the
            # extended gcd (a*xa + b*xb ranges exactly over gcd(a,b)*Z,
            # parametrized by t and a free s), shrinking the equality
            # by one variable per step. Exact, no search involved.
            (xa, a), (xb, b) = sorted(coeffs.items())[:2]
            g2, u, v = _ext_gcd(abs(a), abs(b))
            u *= 1 if a > 0 else -1
            v *= 1 if b > 0 else -1
            t = self._fresh_var()
            s = self._fresh_var()
            sub_a = ({t: u, s: b // g2}, 0)
            sub_b = ({t: v, s: -(a // g2)}, 0)
            self.apply_sub(xa, *sub_a)
            self.apply_sub(xb, *sub_b)
            pending = [_substitute(c, kk, xa, *sub_a) for c, kk in pending]
            pending = [_substitute(c, kk, xb, *sub_b) for c, kk in pending]
            folded = {w: k for w, k in coeffs.items() if w not in (xa, xb)}
            folded[t] = g2
            pending.insert(0, (folded, const))
        return True

    def tighten(self):
        kept = []
        for coeffs, const in self.les:
            coeffs = {v: k for v, k in coeffs.items() if k != 0}
            coeffs, const = _tighten_le(coeffs, const)
            if not coeffs:
                if const > 0:
                    return False
                continue
            kept.append((coeffs, const))
        self.les = kept
        return True


def _fm_eliminate(les, drop_var):
    """One Fourier-Motzkin step over the rationals."""
    lows, highs, rest = [], [], []
    for coeffs, const in les:
        k = coeffs.get(drop_var, 0)
        if k > 0:
            highs.append((coeffs, const, k))
        elif k < 0:
            lows.append((coeffs, const, k))
        else:
            rest.append((coeffs, const))
    for lc, lk, lcoef in lows:
        for hc, hk, hcoef in highs:
            scale_l = hcoef
            scale_h = -lcoef
            coeffs: dict = {}
            for v, c in lc.items():
                if v != drop_var:
                    coeffs[v] = coeffs.get(v, 0) + scale_l * c
            for v, c in hc.items():
                if v != drop_var:
                    coeffs[v] = coeffs.get(v, 0) + scale_h * c
            const = scale_l * lk + scale_h * hk
            coeffs = {v: c for v, c in coeffs.items() if c != 0}
            coeffs, const = _tighten_le(coeffs, const)
            if not coeffs and const > 0:
                return None
            if coeffs:
                rest.append((coeffs, const))
    return rest


def _rationally_feasible(les) -> bool:
    les = list(les)
    while True:
        names = sorted({v for coeffs, _ in les for v in coeffs})
        if not names:
            return all(const <= 0 for coeffs, const in les)
        les = _fm_eliminate(les, names[0])
        if les is None:
            return False


def _var_bounds(les, var):
    """Rational bounds for var after eliminating every other variable."""
    work = list(les)
    for other in sorted({v for coeffs, _ in work for v in coeffs} - {var}):
        work = _fm_eliminate(work, other)
        if work is None:
            return None
    lo, hi = None, None
    for coeffs, const in work:
        k = coeffs.get(var, 0)
        if k == 0:
            if const > 0:
                return None
            continue
        bound = Fraction(-const, k)
        if k > 0:
            hi = bound if hi is None else min(hi, bound)
        else:
            lo = bound if lo is None else max(lo, bound)
    return lo, hi


def _value_order(lo, hi, radius):
    """Integer candidates for a variable, nearest the feasible core
    first. Unbounded sides are clamped to the radius."""
    clamped = False
    if lo is None and hi is None:
        clamped = True
        # chain.from_iterable keeps this lazy; chain(*gen) would
        # materialize every pair up front
        seq = itertools.chain(
            [0], itertools.chain.from_iterable(
                (k, -k) for k in range(1, radius + 1)))
        return seq, clamped
    if lo is None:
        clamped = True
        top = floor(hi)
        return iter(range(top, top - 2 * radius - 1, -1)), clamped
    if hi is None:
        clamped = True
        bot = ceil(lo)
        return iter(range(bot, bot + 2 * radius + 1)), clamped
    return iter(range(ceil(lo), floor(hi) + 1)), clamped


class _Search:
    def __init__(self, radius, budget):
        self.radius = radius
        self.budget = budget
        self.nodes = 0
        self.clamped = False

    def solve(self, les) -> dict | None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise _Budget()
        names = sorted({v for coeffs, _ in les for v in coeffs})
        if not names:
            return {} if all(const <= 0 for _, const in les) else None
        if not _rationally_feasible(les):
            return None
        ranked = []
        for v in names:
            b = _var_bounds(les, v)
            if b is None:
                return None
            lo, hi = b
            if lo is not None and hi is not None:
                if ceil(lo) > floor(hi):
                    return None
                ranked.append((floor(hi) - ceil(lo), v, lo, hi))
            else:
                ranked.append((None, v, lo, hi))
        finite = [r for r in ranked if r[0] is not None]
        if finite:
            _, var, lo, hi = min(finite, key=lambda r: r[0])
        else:
            _, var, lo, hi = ranked[0]
        values, clamped = _value_order(lo, hi, self.radius)
        if clamped:
            self.clamped = True
        for value in values:
            self.nodes += 1
            if self.nodes > self.budget:
                raise _Budget()
            reduced = []
            ok = True
            for coeffs, const in les:
                k = coeffs.get(var, 0)
                if k == 0:
                    reduced.append((coeffs, const))
                    continue
                rest = {v: c for v, c in coeffs.items() if v != var}
                new_const = const + k * value
                if not rest:
                    if new_const > 0:
                        ok = False
                        break
                    continue
                reduced.append((rest, new_const))
            if not ok:
                continue
            sub = self.solve(reduced)
            if sub is not None:
                sub[var] = value
                return sub
        return None


def _int_point(bounds, radius, node_budget):
    """An integer point satisfying every bound (coeffs, const), meaning
    sum + const <= 0. Returns (model, None), (None, None) when there is
    none, or (None, reason) when the search could not decide."""
    keys = set(bounds)
    eqs, les = [], []
    for bound in bounds:
        coeffs, const = bound
        opposite = (tuple((v, -k) for v, k in coeffs), -const)
        if opposite not in keys:
            les.append((dict(coeffs), const))
        elif bound < opposite:
            # s + c <= 0 and -s - c <= 0 together are s + c = 0
            eqs.append((dict(coeffs), const))
    conj = _Conjunct(eqs, les)
    if not conj.eliminate_equalities() or not conj.tighten():
        return None, None
    search = _Search(radius, node_budget)
    try:
        found = search.solve(conj.les)
    except _Budget:
        return None, "search budget exhausted"
    if found is None:
        if search.clamped:
            return None, "unbounded integer variable, no point within radius"
        return None, None
    for var, sub_coeffs, sub_const in reversed(conj.subs):
        value = sub_const
        for v, c in sub_coeffs.items():
            value += c * found.get(v, 0)
        found[var] = value
    return found, None


# ------------------------------------------------------------ decision


def _decide(formulas, radius=DEFAULT_RADIUS, node_budget=DEFAULT_NODE_BUDGET) -> SatResult:
    """Satisfiability of a conjunction. DPLL picks a Boolean model; the
    bounds its arithmetic literals assert form one conjunct, checked
    over the integers. An infeasible conjunct is blocked by a
    deletion-minimal infeasible subset of its literals, and DPLL runs
    again. Literals the clauses force before any decision hold in
    every model, so they join every check but are never blocked. At
    most DNF_LIMIT conjuncts and subsets are checked."""
    formulas = list(formulas)
    clauses, lit_of = _tseitin(formulas, itertools.count(1))
    bounds = {lit: key[1] for key, lit in lit_of.items() if key[0] == "a"}
    fixed: dict = {}
    _propagate(clauses, fixed)
    held = [v if fixed[v] else -v for v in bounds if v in fixed]
    checks = itertools.count(1)
    saw_unknown = None

    def point(lits):
        if next(checks) > DNF_LIMIT:
            raise _Budget()
        return _int_point(
            [bounds[l] if l > 0 else _complement(bounds[-l]) for l in held + lits],
            radius, node_budget)

    while True:
        assignment = _dpll(clauses, fixed)
        if assignment is None:
            return unknown(saw_unknown) if saw_unknown else unsat()
        lits = [v if assignment[v] else -v for v in bounds
                if v in assignment and v not in fixed]
        try:
            found, reason = point(lits)
            if found is None and reason is None:
                for lit in list(lits):
                    trial = [l for l in lits if l != lit]
                    if point(trial) == (None, None):
                        lits = trial
        except _Budget:
            return unknown("too many theory checks")
        if found is not None:
            break
        saw_unknown = saw_unknown or reason
        clauses.append([-l for l in lits])

    names = sorted(key[1] for key in lit_of if key[0] == "v")
    env = {name: assignment.get(lit_of[("v", name)], False) for name in names}
    ints = sorted(set().union(*(int_vars(f) for f in formulas)))
    int_model = {v: found.get(v, 0) for v in ints}
    assert all(eval_ground(f, env, int_model) for f in formulas), "model self-check failed"
    return sat(env, int_model)


def check_sat_prop(formulas, var_cap: int = DEFAULT_VAR_CAP) -> SatResult:
    """Satisfiability of a conjunction of propositional formulas."""
    formulas = list(formulas)
    names = set()
    for f in formulas:
        if has_atoms(f):
            raise SolverError("arithmetic atom in propositional check")
        prop_vars(f, names)
    if len(names) > var_cap:
        raise TooManyVariables(len(names), var_cap)
    return _decide(formulas)


def check_sat_lia(formula, radius: int = DEFAULT_RADIUS,
                  node_budget: int = DEFAULT_NODE_BUDGET) -> SatResult:
    """Satisfiability over the integers for a formula whose atoms are
    linear constraints. Boolean structure and propositional variables
    are allowed."""
    return _decide([formula], radius, node_budget)


def check_sat(formulas) -> SatResult:
    """Satisfiability of a conjunction of formulas, with or without
    arithmetic atoms. Propositional formulas over more variables than
    the cap are unknown."""
    formulas = list(formulas)
    if any(has_atoms(f) for f in formulas):
        return check_sat_lia(And(formulas))
    try:
        return check_sat_prop(formulas)
    except TooManyVariables as exc:
        return unknown(str(exc))


# ------------------------------------------------------- unsat cores


def minimal_unsat_subset(formulas) -> list:
    """Deletion-based minimal core: dropping any remaining member
    makes the conjunction satisfiable. Input must be unsatisfiable."""
    formulas = list(formulas)
    if not check_sat(formulas).is_unsat:
        raise NotUnsat("conjunction is not unsatisfiable")
    core = list(formulas)
    for f in list(core):
        trial = [g for g in core if g is not f]
        if check_sat(trial).is_unsat:
            core = trial
    return core
