"""Solver oracles: brute-force enumeration cross-checks and pinned cases."""

import itertools
import random

import pytest

from epochd import solver
from epochd.sexpr import parse
from epochd.solver import (
    And,
    Atom,
    BoolConst,
    Implies,
    LinTerm,
    LinearConstraint,
    Not,
    NotUnsat,
    Or,
    TooManyVariables,
    UnboundVariable,
    Var,
    check_sat_lia,
    check_sat_prop,
    eval_ground,
    formula_from_sexpr,
    format_formula,
    minimal_unsat_subset,
)


def f(text):
    return formula_from_sexpr(parse(text))


def brute_force_prop(formulas):
    """Independent truth-table oracle."""
    names = sorted(set().union(*[solver.prop_vars(x) for x in formulas]) or set())
    for bits in itertools.product((False, True), repeat=len(names)):
        env = dict(zip(names, bits))
        if all(eval_ground(x, env, {}) for x in formulas):
            return env
    return None


def brute_force_lia(formula, bound=50):
    """Independent integer-grid oracle."""
    ints = sorted(solver.int_vars(formula))
    props = sorted(solver.prop_vars(formula))
    for bits in itertools.product((False, True), repeat=len(props)):
        env = dict(zip(props, bits))
        for point in itertools.product(range(-bound, bound + 1), repeat=len(ints)):
            if eval_ground(formula, env, dict(zip(ints, point))):
                return env, dict(zip(ints, point))
    return None


# ----------------------------------------------------------- ground


def test_eval_ground_implication():
    phi = f("(implies feature_delivered has_test_paths)")
    assert eval_ground(phi, {"feature_delivered": True, "has_test_paths": False}, {}) is False
    assert eval_ground(phi, {"feature_delivered": False, "has_test_paths": False}, {}) is True


def test_eval_ground_contradiction():
    phi = f("(and p (not p))")
    assert eval_ground(phi, {"p": True}, {}) is False
    assert eval_ground(phi, {"p": False}, {}) is False


def test_eval_ground_guard():
    phi = f("(> priority 0)")
    assert eval_ground(phi, {}, {"priority": 1}) is True
    assert eval_ground(phi, {}, {"priority": 0}) is False


def test_eval_ground_unbound_is_hard_error():
    with pytest.raises(UnboundVariable):
        eval_ground(f("(> priority 0)"), {}, {})
    with pytest.raises(UnboundVariable):
        eval_ground(f("(or p q)"), {"p": False}, {})


# ------------------------------------------------------------- prop


def test_prop_contradiction_unsat():
    assert check_sat_prop([f("(and p (not p))")]).is_unsat


def test_prop_empty_set_sat():
    assert check_sat_prop([]).is_sat


def test_prop_model_self_checks():
    phi = f("(and (or a b) (not a))")
    res = check_sat_prop([phi])
    assert res.is_sat
    assert eval_ground(phi, res.model, {}) is True


def test_prop_var_cap():
    big = Or([Var(f"v{i}") for i in range(70)])
    with pytest.raises(TooManyVariables):
        check_sat_prop([big])


def test_check_sat_over_var_cap_is_unknown():
    res = solver.check_sat([Or([Var(f"v{i}") for i in range(70)])])
    assert res.status == "unknown" and res.reason == "70 variables exceeds cap 64"


def test_prop_implication_chain_26_vars():
    # A chain of implications over 26 variables is sat until its end is denied.
    parts = [f(f"(implies c{i} c{i + 1})") for i in range(25)]
    parts.append(f("c0"))
    res = check_sat_prop(parts)
    assert res.is_sat
    assert all(eval_ground(p, res.model, {}) for p in parts)
    parts.append(f("(not c25)"))
    assert check_sat_prop(parts).is_unsat


def test_prop_agrees_with_truth_table_oracle():
    rng = random.Random(7)
    pool = ["p", "q", "r", "s", "t", "u", "v", "w"]

    def rand_formula(depth):
        if depth == 0:
            return Var(rng.choice(names))
        pick = rng.randrange(4)
        if pick == 0:
            return Not(rand_formula(depth - 1))
        if pick == 1:
            return And([rand_formula(depth - 1) for _ in range(2)])
        if pick == 2:
            return Or([rand_formula(depth - 1) for _ in range(2)])
        return Implies(rand_formula(depth - 1), rand_formula(depth - 1))

    for _ in range(300):
        names = pool[: rng.randint(6, 8)]
        formulas = [rand_formula(3) for _ in range(rng.randrange(1, 4))]
        expected = brute_force_prop(formulas)
        got = check_sat_prop(formulas)
        assert got.is_sat == (expected is not None)
        if got.is_sat:
            assert all(eval_ground(x, got.model, {}) for x in formulas)


# -------------------------------------------------------------- lia


def test_lia_simple_guard_sat():
    res = check_sat_lia(f("(> priority 0)"))
    assert res.is_sat
    assert res.int_model["priority"] > 0


def test_lia_contradictory_bounds_unsat():
    assert check_sat_lia(f("(and (> x 0) (< x 0))")).is_unsat


def test_lia_parity_unsat():
    # 2x + 1 = 2y has no integer solutions; the gcd test must see it.
    phi = f("(= (+ (* 2 x) 1) (* 2 y))")
    assert brute_force_lia(phi, bound=100) is None
    assert check_sat_lia(phi).is_unsat


def test_lia_equality_with_unit_coefficient():
    phi = f("(and (= (+ x y) 10) (> x 7) (> y 0))")
    res = check_sat_lia(phi)
    assert res.is_sat
    m = res.int_model
    assert m["x"] + m["y"] == 10 and m["x"] > 7 and m["y"] > 0


def test_lia_two_var_ext_gcd_equality():
    phi = f("(and (= (+ (* 2 x) (* 3 y)) 1) (>= x -5) (<= x 5))")
    res = check_sat_lia(phi)
    assert res.is_sat
    m = res.int_model
    assert 2 * m["x"] + 3 * m["y"] == 1


def test_lia_strict_shadow_tightening():
    # 3(x - y) = 1 has no integer solution but is rationally feasible.
    phi = f("(and (<= (- (* 3 x) (* 3 y)) 1) (<= (- (* 3 y) (* 3 x)) -1))")
    assert check_sat_lia(phi).is_unsat


def test_lia_mixed_boolean_structure():
    phi = f("(or (and p (> x 3)) (and (not p) (< x -3)))")
    res = check_sat_lia(phi)
    assert res.is_sat
    assert eval_ground(phi, res.model, res.int_model)


def test_lia_disequality():
    phi = f("(and (!= x 0) (>= x 0) (<= x 1))")
    res = check_sat_lia(phi)
    assert res.is_sat
    assert res.int_model["x"] == 1


def test_lia_wide_disjunctive_guard_sat():
    # 2**13 sign patterns, every one satisfiable.
    phi = f("(and " + " ".join(f"(or (> x{i} {i}) (< x{i} {-i}))" for i in range(13)) + ")")
    res = check_sat_lia(phi)
    assert res.is_sat
    assert eval_ground(phi, res.model, res.int_model)


def test_lia_agrees_with_grid_oracle():
    rng = random.Random(17)
    for _ in range(200):
        phi = random_lia_formula(rng, max_vars=3, coeff_bound=5)
        expected = brute_force_lia(phi, bound=20)
        got = check_sat_lia(phi)
        if expected is not None:
            assert got.is_sat, format_formula(phi)
            assert eval_ground(phi, got.model, got.int_model)
        elif got.is_sat:
            # Model may legitimately sit outside the oracle grid.
            assert eval_ground(phi, got.model, got.int_model)


def random_lia_formula(rng, max_vars=3, coeff_bound=5, depth=2):
    names = ["x", "y", "z"][: rng.randrange(1, max_vars + 1)]

    def atom():
        if rng.randrange(4) == 0:
            return Var(rng.choice(["p", "q"]))
        coeffs = {v: rng.randint(-coeff_bound, coeff_bound) for v in names}
        const = rng.randint(-coeff_bound * 4, coeff_bound * 4)
        op = rng.choice(["<", ">", "<=", ">=", "=", "!="])
        return Atom(LinearConstraint(op, LinTerm.of(coeffs, 0), LinTerm.of({}, const)))

    def build(d):
        if d == 0:
            return atom()
        pick = rng.randrange(4)
        if pick == 0:
            return Not(build(d - 1))
        if pick == 1:
            return And([build(d - 1) for _ in range(2)])
        if pick == 2:
            return Or([build(d - 1) for _ in range(2)])
        return Implies(build(d - 1), build(d - 1))

    return build(depth)


# ------------------------------------------------------------- cores


def test_core_drops_irrelevant_member():
    p, q = f("p"), f("q")
    notp = f("(not p)")
    core = minimal_unsat_subset([p, notp, q])
    assert core == [p, notp]


def test_core_singleton():
    phi = f("(and p (not p))")
    assert minimal_unsat_subset([phi]) == [phi]


def test_core_arithmetic():
    a, b, c = f("(> x 5)"), f("(< x 3)"), f("(> x 0)")
    core = minimal_unsat_subset([a, b, c])
    assert core == [a, b]


def test_core_requires_unsat_input():
    with pytest.raises(NotUnsat):
        minimal_unsat_subset([f("p"), f("q")])


def test_core_is_minimal_every_subset():
    # All strict subsets of the returned core must be satisfiable.
    members = [f("(> x 5)"), f("(< x 3)"), f("(> y 0)"), f("(< y 10)")]
    core = minimal_unsat_subset(members)
    for i in range(len(core)):
        trial = core[:i] + core[i + 1:]
        assert not solver.check_sat(trial).is_unsat


# ------------------------------------------------------------ format


def test_formula_round_trip_text():
    text = "(implies feature_delivered (and has_code_paths has_test_paths))"
    assert format_formula(f(text)) == text


def test_formula_constants():
    assert eval_ground(f("true"), {}, {})
    assert not eval_ground(f("false"), {}, {})
    assert isinstance(f("true"), BoolConst)
