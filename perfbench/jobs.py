"""The benchmark's jobs: each workload's timed loop and its output checks.

Timed calls go through the ``opalg`` package namespace, so that the
tracer's rebinding reaches them.  Every output is checked after the timed
region against a route independent of the code under test; an operation
that raises, or whose output fails its check, counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from fractions import Fraction
from time import perf_counter

import opalg
import reference
import workloads
from calibrate import Calibrator
from opalg import (
    FreePolynomial,
    HbarScalar,
    I_HBAR,
    Letter,
    WeylMonomial,
    WeylPolynomial,
    Word,
    suites,
)
from opalg.errors import EvalError, ParseError, UnsupportedFragmentError


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _scalar(coeff: list[str]) -> HbarScalar:
    return HbarScalar(Fraction(coeff[0]), Fraction(coeff[1]))


def _word(letters: str) -> Word:
    return Word(tuple(Letter.Q if ch == "q" else Letter.P for ch in letters))


def to_reference(x: FreePolynomial) -> reference.Poly | None:
    """The reference form of a normal-ordered q/p polynomial, or None if a
    word is not of the form ``q^a p^b``."""
    out: reference.Poly = {}
    for word, coeff in x.items():
        letters = "".join(letter.symbol for letter in word.letters)
        a = len(letters) - len(letters.lstrip("q"))
        if letters != "q" * a + "p" * (len(letters) - a):
            return None
        out[(a, len(letters) - a, coeff.hbar_power)] = (coeff.re, coeff.im)
    return out


def from_reference(poly: reference.Poly) -> FreePolynomial:
    return FreePolynomial(
        (_word("q" * a + "p" * b), HbarScalar(re, im, k)) for (a, b, k), (re, im) in poly.items()
    )


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def _count_failed(items: list, outputs: list, check) -> list:
    failed = []
    for item, out in zip(items, outputs):
        try:
            ok = not isinstance(out, Exception) and check(item, out)
        except Exception:  # a check that raises on an output rejects it
            ok = False
        if not ok:
            failed.append(item)
    return failed


def _finish(tracer, latencies: list[float], calibrator: Calibrator) -> dict:
    """Figures read at the end of the timed region, before any check runs."""
    result = {
        "ops": len(latencies),
        "latencies": latencies,
        "calibration": calibrator.finish(len(latencies)),
        "rss_mb": _rss_mb(),
    }
    if tracer is not None:
        tracer.freeze()
    return result


# -- verify_all ------------------------------------------------------------------


def run_verify(job: dict, tracer) -> dict:
    """``run_suite("all")`` and its JSON serialization, as ``opalg verify
    --suite all --format json`` performs them.

    Per-case latency is the time the suite spends producing each case: the
    case iterator handed to the suite's check builder ``_check`` is timed.
    The calibration kernel runs between cases, outside their times.
    """
    latencies: list[float] = []
    build_check = suites._check
    calibrator = Calibrator()

    def timed_check(name, cases):
        def timed():
            start = perf_counter()
            for case in cases:
                latencies.append(perf_counter() - start)
                yield case
                calibrator.tick(len(latencies))
                start = perf_counter()

        return build_check(name, timed())

    suites._check = timed_check
    if tracer is not None:
        tracer.install()
    report = suites.run_suite("all", seed=job["seed"], **workloads.SUITE_ARGS)
    text = json.dumps(report.to_json_dict())
    result = _finish(tracer, latencies, calibrator)

    cases = sum(check.cases for check in report.checks)
    if result["ops"] != cases:
        raise RuntimeError(f"timed {result['ops']} cases, the report counts {cases}")
    failures = [f"{c.name}: {f.input}" for c in report.checks for f in c.failures]
    result["failed"] = len(failures)
    result["failed_examples"] = failures[:5]
    result["digest"] = _digest([text])
    return result


# -- eval_stream -----------------------------------------------------------------


def _scalar_terms(x) -> list | None:
    """Coefficients of a scalar multiple of the identity, or None."""
    out = []
    for key, coeff in x.items():
        identity = len(key) == 0 if isinstance(key, Word) else key == WeylMonomial(0, 0)
        if not identity:
            return None
        out.append((coeff.hbar_power, coeff.re, coeff.im))
    return sorted(out)


def same_value(a, b) -> bool:
    """Equal as operators.  The printer writes a scalar of either basis as a
    bare number, which parses into the free basis."""
    if type(a) is type(b):
        return a == b
    terms = _scalar_terms(a)
    return terms is not None and terms == _scalar_terms(b)


def json_matches(value, text: str) -> bool:
    """Rebuild the terms from the JSON document and compare with the value."""
    doc = json.loads(text)
    free = isinstance(value, FreePolynomial)
    if doc["basis"] != ("free" if free else "weyl"):
        return False
    decoded = {}
    for term in doc["terms"]:
        word = term["word"]
        key = tuple(word) if free else (word["n"], word["m"], word["deriv"])
        for power, c in term["coeff"]["hbar_powers"].items():
            decoded[(key, int(power))] = (Fraction(c["re"]), Fraction(c["im"]))
    expected = {}
    for key, coeff in value.items():
        if free:
            k = tuple(letter.symbol for letter in key.letters)
        else:
            k = (key.n, key.m, key.deriv.symbol if key.deriv else None)
        expected[(k, coeff.hbar_power)] = (coeff.re, coeff.im)
    return decoded == expected


def check_eval(item: dict, output: tuple) -> bool:
    """Text round-trips, JSON decodes to the same terms, and ``normal(X)``
    of a pure q/p ``X`` is normal and equal to ``X`` by the oracle."""
    value, text, doc = output
    if not same_value(value, opalg.evaluate(opalg.parse(text))) or not json_matches(value, doc):
        return False
    if item["oracle"] is None:
        return True
    operand = opalg.evaluate(opalg.parse(item["oracle"]))
    if isinstance(operand, WeylPolynomial):
        operand = opalg.expand_polynomial(operand)
    return all(word.is_normal for word, _ in value.items()) and opalg.oracle_equal(value, operand)


def run_eval(job: dict, tracer) -> dict:
    """Parse, evaluate and render each expression, one after another."""
    items = job["exprs"]
    outputs = []
    latencies = []
    calibrator = Calibrator()
    if tracer is not None:
        tracer.install()
    for item in items:
        t0 = perf_counter()
        try:
            value = opalg.evaluate(opalg.parse(item["expr"]))
            outputs.append((value, opalg.render_text(value), opalg.render_json(value)))
        except Exception as exc:  # an expression that raises is a failed operation
            outputs.append(exc)
        latencies.append(perf_counter() - t0)
        calibrator.tick(len(latencies))
    result = _finish(tracer, latencies, calibrator)

    result["digest"] = _digest(repr(out) if isinstance(out, Exception) else out[1] + out[2] for out in outputs)
    failed = _count_failed(items, outputs, check_eval) if job["check"] else []
    result["failed"] = len(failed)
    result["failed_examples"] = [item["expr"] for item in failed[:5]]
    return result


# -- ordering_large ----------------------------------------------------------------


def _weyl(terms: list) -> WeylPolynomial:
    return WeylPolynomial((WeylMonomial(n, m), HbarScalar(Fraction(c))) for c, n, m in terms)


def _scaled(poly: reference.Poly, coeff: list[str]) -> reference.Poly:
    return reference.scale(poly, Fraction(coeff[0]), Fraction(coeff[1]))


def _normal_weyl(w: WeylPolynomial) -> FreePolynomial:
    return opalg.normal_order(opalg.expand_polynomial(w))


def _comm(a: WeylPolynomial, b: WeylPolynomial) -> FreePolynomial:
    return opalg.commutator_bracket(opalg.expand_polynomial(a), opalg.expand_polynomial(b))


def _oracle(x: FreePolynomial, y: FreePolynomial) -> bool:
    return opalg.oracle_equal(x, y)


def _normal(x: FreePolynomial) -> FreePolynomial:
    return opalg.normal_order(x)


def prepare_ordering(op: dict) -> tuple:
    """The operation to time, as (function, arguments), built beforehand."""
    kind = op["kind"]
    if kind == "normal_pq":
        word = _word("p" * op["b"] + "q" * op["a"])
        return _normal, (FreePolynomial.from_word(word, _scalar(op["coeff"])),)
    if kind == "normal_weyl":
        return _normal_weyl, (
            WeylPolynomial.from_monomial(WeylMonomial(op["n"], op["m"]), _scalar(op["coeff"])),
        )
    if kind == "comm":
        return _comm, (_weyl(op["a"]), _weyl(op["b"]))
    other = _scaled(reference.normal_word(op["word"]), op["coeff"])
    if op["perturb"]:
        # hbar p^L, L the word length, acts as zero below x^L: the oracle
        # finds it at its last but one test degree, so an unequal pair
        # costs about as much as an equal one.
        other = reference.add(other, {(0, len(op["word"]), 1): (Fraction(1), Fraction(0))})
    return _oracle, (
        FreePolynomial.from_word(_word(op["word"]), _scalar(op["coeff"])),
        from_reference(other),
    )


def check_ordering(op: dict, result) -> bool:
    """Closed forms for the normal orderings, the oracle for commutators,
    and the construction for oracle verdicts."""
    kind = op["kind"]
    if kind == "normal_pq":
        return to_reference(result) == _scaled(reference.normal_pq(op["a"], op["b"]), op["coeff"])
    if kind == "normal_weyl":
        return to_reference(result) == _scaled(reference.mccoy(op["n"], op["m"]), op["coeff"])
    if kind == "comm":
        f = from_reference(reference.weyl_sum([(Fraction(c), n, m) for c, n, m in op["a"]]))
        g = from_reference(reference.weyl_sum([(Fraction(c), n, m) for c, n, m in op["b"]]))
        return opalg.oracle_equal(result.scale(I_HBAR), f * g - g * f)
    return result is (not op["perturb"])


def run_ordering(job: dict, tracer) -> dict:
    ops = job["ops"]
    prepared = [prepare_ordering(op) for op in ops]
    results = []
    latencies = []
    calibrator = Calibrator()
    if tracer is not None:
        tracer.install()
    for fn, args in prepared:
        t0 = perf_counter()
        try:
            results.append(fn(*args))
        except Exception as exc:  # an operation that raises is a failed operation
            results.append(exc)
        latencies.append(perf_counter() - t0)
        calibrator.tick(len(latencies))
    result = _finish(tracer, latencies, calibrator)

    result["digest"] = _digest(
        repr(r) if isinstance(r, (Exception, bool)) else opalg.render_text(r) for r in results
    )
    failed = _count_failed(ops, results, check_ordering) if job["check"] else []
    result["failed"] = len(failed)
    result["failed_examples"] = failed[:5]
    return result


# -- stress ------------------------------------------------------------------------


def check_stress(expect: list, value) -> bool:
    kind = expect[0]
    if kind == "normal_pq":
        return to_reference(value) == reference.normal_pq(expect[1], expect[2])
    if kind == "mccoy":
        return to_reference(value) == reference.mccoy(expect[1], expect[2])
    if kind == "weyl_monomial":
        return list(value.items()) == [(WeylMonomial(expect[1], expect[2]), HbarScalar(1))]
    words = list(value.items())
    return len(words) == 2 ** expect[1] and all(c == HbarScalar(1) for _, c in words)


def run_stress(job: dict) -> None:
    """As ``opalg eval``: a user error exits 2, anything else is a traceback."""
    try:
        value = opalg.evaluate(opalg.parse(job["expr"]))
        opalg.render_text(value)
    except (ParseError, EvalError, UnsupportedFragmentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    print(json.dumps({"correct": check_stress(job["expect"], value)}), flush=True)


RUNNERS = {"verify_all": run_verify, "eval_stream": run_eval, "ordering_large": run_ordering}


def main(job: dict) -> None:
    workload = job["workload"]
    if workload == "none":
        return
    if workload == "stress":
        run_stress(job)
        return
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
    result = RUNNERS[workload](job, tracer)
    if tracer is not None:
        result["layers"] = tracer.frozen
        result["caches_present"] = tracer.present_caches()
        tracer.write_spans(job["spans_path"])
    print(json.dumps(result), flush=True)
