"""Seeded inputs for the three workloads and the fixed stress table.

Nothing here imports the package under test: the benchmark generates its
inputs on its own and hands the program only the generated inputs.  The
same seed always gives the same inputs.
"""

from __future__ import annotations

import random

# `opalg verify --suite all` at its default sizes; one takes about 15 s on
# a 2-vCPU box whatever --seconds says.
SUITE_ARGS = {"max_degree": 6, "cases": 200}
# Below 1,000 a second: at --seconds 10 that keeps eval_stream's tail at
# p99, with 99 expressions beyond it, rather than p99.9 with barely ten.
EVAL_PER_SECOND = 990
ORDERING_ROUNDS_PER_SECOND = 5

_RATIONALS = ("2", "3", "(1/2)", "(2/3)", "(3/4)", "(5/2)")
_SCALARS = _RATIONALS + ("i", "hbar", "i hbar")


# -- eval_stream ---------------------------------------------------------------


class _ExpressionGenerator:
    """Random expressions over the pure q/p grammar, degree-bounded.

    Every generated expression evaluates without error in any context: it
    holds no state letter and no negative hbar power, so the symmetrizer
    accepts it, and every compound operand is parenthesized, so the two
    product operators never meet at one level.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng

    def pure(self, degree: int, depth: int = 0) -> tuple[str, bool]:
        """An expression of degree at most ``degree``; returns (text, atomic)."""
        rng = self.rng
        if degree <= 0:
            scalar = rng.choice(_SCALARS)
            return scalar, " " not in scalar
        if depth >= 3:
            return self._monomial(degree)
        kind = rng.choices(
            ("mono", "scaled", "juxt", "sum", "o", "S", "pb", "comm", "normal", "d", "power"),
            weights=(3, 2, 3, 3, 3, 2, 2, 2, 2, 1, 1),
        )[0]
        if kind == "mono" or (kind == "power" and degree < 2):
            return self._monomial(degree)
        if kind == "scaled":
            return f"{rng.choice(_SCALARS)} {self.operand(degree, depth)}", False
        if kind in ("juxt", "o"):
            left = rng.randint(1, degree)
            right = rng.randint(0, degree - left)
            sep = " " if kind == "juxt" else " o "
            return f"{self.operand(left, depth)}{sep}{self.operand(right, depth)}", False
        if kind == "sum":
            op = rng.choice((" + ", " - "))
            return f"{self.operand(degree, depth)}{op}{self.operand(degree, depth)}", False
        if kind in ("pb", "comm"):
            # Both brackets lower the degree by two.
            left = rng.randint(1, min(degree + 1, 4))
            right = rng.randint(1, min(degree + 2 - left, 4))
            a, _ = self.pure(left, depth + 1)
            b, _ = self.pure(right, depth + 1)
            return f"{kind}({a}, {b})", True
        if kind in ("S", "normal"):
            return f"{kind}({self.pure(degree, depth + 1)[0]})", True
        if kind == "d":
            inner, _ = self.pure(min(degree + 1, 5), depth + 1)
            return f"{rng.choice(('dq', 'dp'))}({inner})", True
        base = rng.choice(("(q + p)", "(q - p)", "(q + 2 p)", "(i q + p)"))
        return f"{base}^{rng.randint(2, degree)}", True

    def operand(self, degree: int, depth: int) -> str:
        text, atomic = self.pure(degree, depth + 1)
        return text if atomic else f"({text})"

    def _monomial(self, degree: int) -> tuple[str, bool]:
        rng = self.rng
        letter = rng.choice("qp")
        exponent = rng.randint(1, degree)
        return (letter if exponent == 1 else f"{letter}^{exponent}"), True


def eval_stream(seed: int, count: int) -> list[dict]:
    """``count`` expressions; ``oracle`` marks ``normal(X)`` with X pure q/p.

    Most are pure q/p expressions of degree 2 to 4.  About one in ten uses
    a state letter in a form the grammar allows: inside a free product, in
    a commutator (which prints a negative hbar power) or as the single
    derivative letter of a symmetric product.
    """
    rng = random.Random(f"{seed}:eval_stream")
    gen = _ExpressionGenerator(rng)
    out = []
    for _ in range(count):
        degree = rng.randint(2, 4)
        roll = rng.random()
        if roll < 0.2:
            inner, _ = gen.pure(degree)
            out.append({"expr": f"normal({inner})", "oracle": inner})
            continue
        if roll < 0.3:
            x = gen.operand(rng.randint(1, 2), 0)
            y = gen.operand(rng.randint(0, 2), 0)
            expr = rng.choice(
                (
                    f"normal({x} rho {y})",
                    f"comm({x}, rho)",
                    f"{x} o {rng.choice(('drho_q', 'drho_p'))}",
                    f"pb({x}, {y} o drho_p)",
                )
            )
            out.append({"expr": expr, "oracle": None})
            continue
        out.append({"expr": gen.pure(degree)[0], "oracle": None})
    return out


# -- ordering_large --------------------------------------------------------------


def _coeff(rng: random.Random) -> list[str]:
    """A complex rational coefficient as [re, im] strings."""
    return rng.choice((["1", "0"], ["-1", "0"], ["1/2", "0"], ["3", "0"], ["0", "1"], ["2/3", "-1/2"]))


# Offsets a - b of successive normal(p^b q^a): the rewriting of p^b q^a only
# visits words with a - b as their q-count minus p-count, so spreading the
# offsets keeps the memo reuse between operations low.
_OFFSETS = (0, 3, -3, 6, -6, 1, -1, 4, -4, 2, -2, 5, -5)


def _split(total: int, shift: int, low: int, high: int) -> tuple[int, int]:
    a = min(high, max(low, (total + shift) // 2))
    return a, min(high, total - a)


def _weyl_operand(rng: random.Random, degree: int, terms: int, r: int, flip: bool) -> list[list]:
    out = []
    for k in range(terms):
        n, m = _split(degree - k, (r + k) % 3 - 1, 1, degree - k - 1)
        out.append([rng.choice(("1", "-1", "1/2", "3", "-2/3")), *((m, n) if flip else (n, m))])
    return out


def ordering_large(seed: int, rounds: int) -> list[dict]:
    """Heavy free-algebra operations, sweeping up in size over the run.

    Round ``r`` holds one ``normal(p^b q^a)`` (a + b from 8 to 32), one
    ``normal(S(q^n p^m))`` (n + m from 4 to 11), one commutator of Weyl
    operands (degrees 2 to 7) and one oracle comparison of degree 12 to 16.
    The sizes follow the round number, not the seed: which sizes run, and
    in which order, decides how much each operation can reuse of the
    normal-form memo, so seed-drawn sizes would move the latency
    percentiles by more than the code's own noise.  The seed draws the
    coefficients, one mirror orientation for the whole run (q and p
    exponents swapped, which swaps q-count minus p-count for every word
    and keeps the reuse between operations), the order of the letters of
    each oracle word (its length and p-count follow the round) and whether
    each oracle pair is equal.  The largest sizes stop below the stress
    table.
    """
    rng = random.Random(f"{seed}:ordering_large")
    flip = rng.random() < 0.5
    ops: list[dict] = []
    for r in range(rounds):
        f = r / max(1, rounds - 1)
        a, b = _split(8 + round(24 * f), _OFFSETS[r % len(_OFFSETS)], 2, 16)
        n, m = _split(4 + round(7 * f), (0, 1, -1)[r % 3], 1, 10)
        if flip:
            a, b, n, m = b, a, m, n
        ops.append({"kind": "normal_pq", "a": a, "b": b, "coeff": _coeff(rng)})
        ops.append({"kind": "normal_weyl", "n": n, "m": m, "coeff": _coeff(rng)})
        degree = 2 + round(4 * f)
        ops.append(
            {
                "kind": "comm",
                "a": _weyl_operand(rng, degree + r % 2, 1 + r % 2, r, flip),
                "b": _weyl_operand(rng, degree, 1, r + 1, flip),
            }
        )
        length = 12 + r % 5
        letters = list("p" * (length // 2 + r % 3 - 1))
        letters += "q" * (length - len(letters))
        rng.shuffle(letters)
        ops.append({"kind": "oracle", "word": "".join(letters), "coeff": _coeff(rng), "perturb": rng.random() < 0.5})
    return ops


# -- stress table ----------------------------------------------------------------

# Known-bad inputs, each run alone in a child with its own time and memory
# limit.  `expect` names the closed form its output must match if it
# completes.  The table is fixed: shrinking it would hide the failures it
# exists to show.
STRESS = (
    {"expr": "normal(p^23 q^23)", "expect": ["normal_pq", 23, 23]},
    {"expr": "normal(p^33 q^33)", "expect": ["normal_pq", 33, 33]},
    {"expr": "S(q^100000 p^100000)", "expect": ["weyl_monomial", 100000, 100000]},
    {"expr": "(q+p)^20", "expect": ["all_words", 20]},
    {"expr": "normal(S(q^7 p^7))", "expect": ["mccoy", 7, 7]},
)
STRESS_SECONDS = 4
STRESS_MEMORY_BYTES = 512 * 1024 * 1024
