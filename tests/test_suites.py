import hashlib
import inspect
import io
import json
import weakref
from collections import Counter
from contextlib import redirect_stdout

import pytest

from opalg import brackets, cli, core, suites, weyl
from opalg.parser import evaluate, parse
from opalg.printing import render_text
from opalg.suites import SUITE_NAMES, run_suite
from opalg.weyl import WeylPolynomial


def test_every_suite_passes_at_small_parameters():
    for name in SUITE_NAMES:
        report = run_suite(name, max_degree=3, cases=20, seed=0)
        assert report.passed, f"{name}: {[c.name for c in report.checks if not c.passed]}"
        assert report.suite == name
        assert all(check.cases >= 1 for check in report.checks)


def test_all_concatenates_with_prefixed_names():
    report = run_suite("all", max_degree=2, cases=5, seed=0)
    assert report.suite == "all"
    assert report.passed
    names = [check.name for check in report.checks]
    assert all("/" in name for name in names)
    prefixes = [name.split("/", 1)[0] for name in names]
    # checks appear grouped in the fixed suite order
    assert prefixes == sorted(prefixes, key=SUITE_NAMES.index)
    assert set(prefixes) == set(SUITE_NAMES)


def test_reports_are_deterministic():
    a = run_suite("all", max_degree=2, cases=10, seed=1)
    b = run_suite("all", max_degree=2, cases=10, seed=1)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_pair_tables_are_freed_when_their_check_ends(monkeypatch):
    # The one cache of a check, each pair table, must not outlive the run.
    refs = []

    def recorded(op, values):
        table = pair_table(op, values)
        refs.append(weakref.ref(table))
        return table

    pair_table = suites._pair_table
    monkeypatch.setattr(suites, "_pair_table", recorded)
    for name in ("eq14", "jacobi"):
        assert run_suite(name, max_degree=3, cases=1).passed
    assert refs
    assert all(ref() is None for ref in refs)


def test_different_seeds_change_random_inputs(monkeypatch):
    # The report holds no inputs, so the case labels are what must differ.
    report_one, one = recorded_cases(monkeypatch, "eq8", max_degree=3, cases=10, seed=1)
    report_two, two = recorded_cases(monkeypatch, "eq8", max_degree=3, cases=10, seed=2)
    assert report_one.passed and report_two.passed
    assert len(one) == len(two) > 0
    assert [label for _, label in one] != [label for _, label in two]


def test_report_json_shape():
    report = run_suite("obstruction", max_degree=2, cases=3, seed=0)
    payload = report.to_json_dict()
    assert set(payload) == {"suite", "passed", "checks"}
    for check in payload["checks"]:
        assert set(check) == {"name", "cases", "failures"}
        for failure in check["failures"]:
            assert set(failure) == {"input", "difference"}


def test_report_text_is_what_verify_prints():
    text = run_suite("eq6", max_degree=2, cases=1).to_text()
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert cli.main(["verify", "--suite", "eq6", "--max-degree", "2", "--cases", "1"]) == 0
    assert buffer.getvalue() == text + "\n"
    lines = text.splitlines()
    assert lines[0] == "suite eq6"
    assert lines[-1] == "result: PASS"


def test_invalid_configuration_is_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")
    with pytest.raises(ValueError):
        run_suite("eq6", max_degree=0)
    with pytest.raises(ValueError):
        run_suite("eq6", cases=0)


# The sha256 of every (check name, case label) that run_suite("all",
# max_degree=3, cases=20, seed=1) produces, in order.  The report's JSON holds
# only names, counts and verdicts, so this digest is what shows that a change
# keeps the rng draw order and the case inputs.
CASE_STREAM_SEED_1 = "5b28156ef79c201646ecf0e6129d17bd2893ad057b2e3e2056a930194f187c6c"


def recorded_cases(monkeypatch, suite: str, **params):
    """The report of ``run_suite(suite, **params)`` and every ``(check name,
    case label)`` it produces, in order."""
    cases_seen = []
    build = suites._check

    def recording(name, cases):
        def record():
            for template, values, difference in cases:
                cases_seen.append((name, suites._format_label(template, values)))
                yield template, values, difference

        return build(name, record())

    with monkeypatch.context() as patch:
        patch.setattr(suites, "_check", recording)
        report = run_suite(suite, **params)
    return report, cases_seen


def case_stream_digest(monkeypatch, seed: int) -> str:
    stream = hashlib.sha256()
    _, cases = recorded_cases(monkeypatch, "all", max_degree=3, cases=20, seed=seed)
    for name, label in cases:
        stream.update(f"{name}\0{label}\n".encode())
    return stream.hexdigest()


def test_case_stream_is_pinned(monkeypatch):
    assert case_stream_digest(monkeypatch, 1) == CASE_STREAM_SEED_1
    assert case_stream_digest(monkeypatch, 2) != CASE_STREAM_SEED_1


# -- the tabled monomial-triple checks against the direct formulas ---------------

TRIPLE_DEGREE = 3


class PairSpy:
    """Counts the calls of each binary operation whose two arguments were not
    made by a spied call: those are the pair values.  Every value the spied
    calls make is kept alive, so that no id is reused while it is counted."""

    def __init__(self):
        self.active = False
        self.made: list = []
        self.made_ids: set[int] = set()
        self.pairs: Counter = Counter()

    def wrap(self, name, op):
        def spied(x, y):
            result = op(x, y)
            if self.active:
                if id(x) not in self.made_ids and id(y) not in self.made_ids:
                    self.pairs[name, id(x), id(y)] += 1
                self.made.append(result)
                self.made_ids.add(id(result))
            return result

        return spied


def monomial_stream(monkeypatch, suite: str, spy: PairSpy) -> tuple[list, Counter]:
    """The ``(label, residual)`` stream of the suite's monomial-triple check,
    and how often that check computed each pair value."""
    stream, pairs = [], Counter()
    build = suites._check

    def recording(name, cases):
        if not name.endswith("-monomials"):
            return build(name, cases)

        def record():
            spy.active = True
            for template, values, difference in cases:
                stream.append((suites._format_label(template, values), difference))
                yield template, values, difference
            spy.active = False

        result = build(name, record())
        pairs.update(spy.pairs)
        spy.pairs.clear()
        return result

    with monkeypatch.context() as patch:
        patch.setattr(suites, "_check", recording)
        run_suite(suite, max_degree=TRIPLE_DEGREE, cases=1, seed=0)
    return stream, pairs


def plus_first(op):
    """``op`` plus its first argument: asymmetric, so that a transposed table
    index changes the residuals, and nonzero residuals on the monomials."""
    return lambda x, y: op(x, y) + x


def direct_stream(residual) -> list:
    monos = suites._monomials(TRIPLE_DEGREE)
    polys = [(str(m), WeylPolynomial.from_monomial(m)) for m in monos]
    return [
        (f"{f} , {g} , {h}", residual(fp, gp, hp))
        for f, fp in polys
        for g, gp in polys
        for h, hp in polys
    ]


@pytest.mark.parametrize("perturbed", ["symmetrized_poisson_bracket", "weyl_product"])
def test_tabled_monomial_triples_match_the_direct_formulas(monkeypatch, perturbed):
    # The pair tables take their values from the suite's operations, while a
    # residual sums its outer brackets and products from the key hooks.  So
    # the perturbation reaches the tabled pairs only, and the direct
    # reference applies it to them alone.
    bracket, product = brackets.symmetrized_poisson_bracket, brackets.weyl_product
    spy, tabled_op = PairSpy(), {}
    for name, op_name in [("bracket", "symmetrized_poisson_bracket"), ("product", "weyl_product")]:
        op = getattr(suites, op_name)
        tabled_op[name] = plus_first(op) if op_name == perturbed else op
        monkeypatch.setattr(suites, op_name, spy.wrap(name, tabled_op[name]))
    pair_bracket, pair_product = tabled_op["bracket"], tabled_op["product"]
    n = len(suites._monomials(TRIPLE_DEGREE))

    def leibniz(f, g, h):
        lhs = bracket(f, pair_product(g, h))
        return lhs - (product(pair_bracket(f, g), h) + product(g, pair_bracket(f, h)))

    def jacobiator(f, g, h):
        return (
            bracket(f, pair_bracket(g, h))
            + bracket(g, pair_bracket(h, f))
            + bracket(h, pair_bracket(f, g))
        )

    for suite, residual, pairs in [
        ("eq14", leibniz, {"bracket", "product"}),
        ("jacobi", jacobiator, {"bracket"}),
    ]:
        tabled, computed = monomial_stream(monkeypatch, suite, spy)
        assert len(tabled) == n**3
        assert tabled == direct_stream(residual), suite
        # Each pair value is computed at most once in the run, and every
        # ordered pair of monomials is met.
        assert max(computed.values()) == 1, suite
        assert Counter(op for op, _, _ in computed) == {name: n * n for name in pairs}, suite
        if suite == "eq14" or perturbed == "symmetrized_poisson_bracket":
            assert any(difference for _, difference in tabled), suite


# -- failure labels -----------------------------------------------------------------


@pytest.mark.parametrize(
    "suite, op_name, failing",
    [
        ("jacobi", "symmetrized_poisson_bracket", {"jacobi-monomials", "jacobi-random"}),
        ("eq10", "weyl_product", {"two-step-agreement-monomials", "unit", "associativity"}),
    ],
)
def test_failure_labels_show_their_own_case(monkeypatch, suite, op_name, failing):
    # Each check draws all of its cases before the check builder sees any,
    # so the builder formats every failing case's label after later cases
    # were made: values that a generator reused or changed from case to case
    # would show the last case's inputs.
    if op_name == "symmetrized_poisson_bracket":
        # The pair tables and the summed Jacobiator both take the bracket's
        # key hook.  As the symmetric product, it makes every Jacobiator
        # 3 f o g o h, which is nonzero.
        monkeypatch.setattr(brackets, "_monomial_bracket", weyl._add_exponents)
    else:
        monkeypatch.setattr(suites, op_name, plus_first(getattr(suites, op_name)))
    drawn = {}
    build = suites._check

    def drawn_first(name, cases):
        held, seen = [], []
        drawn[name] = seen
        for template, values, difference in cases:
            seen.append((suites._format_label(template, values), difference.is_zero))
            held.append((template, values, difference))
        return build(name, held)

    monkeypatch.setattr(suites, "_check", drawn_first)
    report = run_suite(suite, max_degree=2, cases=5, seed=0)
    for check in report.checks:
        inputs = [failure.input for failure in check.failures]
        assert inputs == [label for label, zero in drawn[check.name] if not zero], check.name
        if check.name in failing:
            assert len(inputs) == check.cases and len(set(inputs)) > 1, check.name
    assert failing <= {check.name for check in report.checks}


def test_only_a_failing_case_formats_its_label(monkeypatch):
    # A passing run renders no inputs; a failing run formats each failing
    # case's label once, as its report's input.
    formatted = []
    format_label = suites._format_label

    def counted(template, values):
        formatted.append(format_label(template, values))
        return formatted[-1]

    monkeypatch.setattr(suites, "_format_label", counted)
    assert run_suite("all", max_degree=3, cases=5, seed=1).passed
    assert formatted == []
    monkeypatch.setattr(suites, "weyl_product", plus_first(suites.weyl_product))
    report = run_suite("eq10", max_degree=3, cases=5, seed=1)
    inputs = [failure.input for check in report.checks for failure in check.failures]
    assert inputs and formatted == inputs


# -- lazy cases -----------------------------------------------------------------

# The identity operations the suites call, looked up as module globals.
SPIED = (
    "symmetrize",
    "weyl_product",
    "symmetrized_poisson_bracket",
    "expand",
    "expand_polynomial",
    "normal_order",
    "oracle_equal",
    "quantize",
    "poisson_bracket_classical",
    "leibniz_ordinary_product_gap",
    "_leibniz",
    "_bracket_sum",
    "_product_difference",
    "check_anticommutator_identity",
    "check_leibniz",
    "check_obstruction",
    "check_von_neumann_equivalence",
)


def test_every_residual_is_computed_while_its_check_iterates(monkeypatch):
    # The benchmark times a case as the time the check builder spends
    # advancing the check's iterator, so identity work done in a suite body
    # instead would go untimed.
    iterating = False
    calls, outside = Counter(), Counter()

    def spy(name, op):
        def spied(*args):
            calls[name] += 1
            if not iterating:
                outside[name] += 1
            return op(*args)

        return spied

    for name in SPIED:
        monkeypatch.setattr(suites, name, spy(name, getattr(suites, name)))
    build = suites._check

    def advancing(name, cases):
        def advance():
            nonlocal iterating
            iterator = iter(cases)
            while True:
                iterating = True
                try:
                    case = next(iterator)
                except StopIteration:
                    return
                finally:
                    iterating = False
                yield case

        return build(name, advance())

    monkeypatch.setattr(suites, "_check", advancing)
    report = run_suite("all", max_degree=2, cases=3, seed=0)
    assert report.passed
    assert set(calls) == set(SPIED)
    assert outside == Counter()


# -- McCoy's closed form --------------------------------------------------------


def test_eq11_catches_a_wrong_mccoy_constant(monkeypatch):
    # The mutant counts one extra -i hbar at slot ((), 0, 1) of every whole
    # arrangement set {q p, p q}.  eq11's V = q case sees it only if its two
    # sides take different routes: the left side walks its words, the right
    # side takes McCoy's closed form.
    arrangement_counts = weyl._arrangement_counts

    def mutant(sets):
        sets = list(sets)
        counts_by_coeff = arrangement_counts(sets)
        for n, m, coeff in sets:
            if (n, m) == (1, 1):
                counts = counts_by_coeff[coeff]
                counts[(), 0, 1] = counts.get(((), 0, 1), 0) + 1
        return counts_by_coeff

    for module in (core, weyl):
        monkeypatch.setattr(module, "_arrangement_counts", mutant)
    assert render_text(evaluate(parse("normal(S(q p))"))) == "q p - i hbar"
    for seed in (1, 2, 3):
        report = run_suite("eq11", seed=seed)
        assert not report.passed, seed


# -- the walk's state step --------------------------------------------------------


STATE_STEP = "step[head + _P * b + tail, 0, k] = n"


def test_eq20_and_eq21_catch_a_walk_state_step_mutant(monkeypatch):
    # The mutant moves p^b past the state letters of the walk's state step.
    # eq20 and eq21 see it only if the commutator side does not walk its
    # state words: the symmetric side walks them, and the commutator meets
    # a state letter only in its own junction product.  The walk sits under
    # a per-word memo, which the true walk warms first: the mutant replaces
    # the memo as a whole, so no warm entry hides it.
    walks = [
        f
        for f in (getattr(value, "__wrapped__", value) for value in vars(core).values())
        if inspect.isfunction(f) and f.__module__ == core.__name__
        if STATE_STEP in inspect.getsource(f)
    ]
    assert len(walks) == 1
    name, namespace = walks[0].__name__, dict(vars(core))
    assert getattr(core, name).__wrapped__ is walks[0]
    mutant = inspect.getsource(walks[0]).replace(STATE_STEP, "step[head + tail + _P * b, 0, k] = n")
    exec(mutant, namespace)
    comm = render_text(evaluate(parse("comm(S(q p^2), rho)")))
    for seed in (1, 2, 3):
        for suite in ("eq20", "eq21"):
            assert run_suite(suite, seed=seed).passed, (suite, seed)
    assert getattr(core, name).cache_info().currsize > 0
    for module in (core, weyl):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, namespace[name])
    assert render_text(evaluate(parse("normal(p rho)"))) == "rho p"
    assert render_text(evaluate(parse("comm(S(q p^2), rho)"))) == comm
    for seed in (1, 2, 3):
        for suite in ("eq20", "eq21"):
            assert not run_suite(suite, seed=seed).passed, (suite, seed)
