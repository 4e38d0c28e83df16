"""Seeded benchmark workloads: lists of generated problem texts.

The library only ever sees the generated text.  ``mixed`` and ``ladder`` use
the shipped ``eufinterp.generate`` families; ``wide-class`` and ``crossing``
are generated here, so that the package's own generators stay as they are.
Sizes are fixed per workload and the seed only varies the instances, so two
seeds give workloads of the same shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# One instance per size.  An odd count keeps the median (and, with the largest
# size alone in the top group, the p90) inside one size's samples.
WIDE_CLASS_SIZES = (20, 40, 60, 80, 100, 150, 300)
CROSSING_SIZES = (5, 10, 20, 30, 40, 60, 80)
LADDER_RUNGS = (10, 20, 30, 40, 50, 60, 70)
MIXED_PER_FAMILY = 56


@dataclass(frozen=True)
class Instance:
    text: str
    family: str
    size: int
    meta: dict = field(default_factory=dict)


def _render(a_lits: list[str], b_lits: list[str]) -> str:
    return "(A " + " ".join(a_lits) + ")\n(B " + " ".join(b_lits) + ")\n"


def _eq(rng: random.Random, lhs: str, rhs: str) -> str:
    return f"(= {lhs} {rhs})" if rng.random() < 0.5 else f"(= {rhs} {lhs})"


def wide_class(rng: random.Random, n: int) -> str:
    """A: x{i+1} = (f x{i}), shuffled.  B: x0 = x1 and x0 != x{n}.

    Congruence merges the whole chain into one class; the interpolant is the
    single clause x0 = x1 => x0 = x{n}.  The literal order and orientation are
    fixed per size: they set the shape of the class's proof tree, and with it
    a cost that differs by 2x between shuffles of one size.  The seed renames
    the variables.
    """
    shape = random.Random(f"wide-class:{n}")
    label = list(range(n + 1))
    rng.shuffle(label)
    x = [f"x{j}" for j in label]
    a_lits = [_eq(shape, x[i + 1], f"(f {x[i]})") for i in range(n)]
    shape.shuffle(a_lits)
    return _render(a_lits, [f"(= {x[0]} {x[1]})", f"(not (= {x[0]} {x[n]}))"])


def crossing(rng: random.Random, k: int) -> str:
    """A: a{i} = z{i}, (g a{i}) = t{i}.  B: z{i} = b{i}, (g b{i}) = t{i+1}.

    Plus t0 != t{k} in B.  Each congruence (g a{i}) ~ (g b{i}) joins an
    A-private and a B-private term, so repair splits it at a fresh shared
    application (g z{i}): k repair vertices in all.
    """
    a_lits, b_lits = [], []
    for i in range(k):
        a_lits += [_eq(rng, f"a{i}", f"z{i}"), _eq(rng, f"(g a{i})", f"t{i}")]
        b_lits += [_eq(rng, f"z{i}", f"b{i}"), _eq(rng, f"(g b{i})", f"t{i + 1}")]
    rng.shuffle(a_lits)
    rng.shuffle(b_lits)
    b_lits.append(f"(not (= t0 t{k}))")
    return _render(a_lits, b_lits)


def _sweep_size(family: str, index: int) -> int:
    # The sizes of the package's own sweep test: 5..60 literals.
    if family == "ladder":
        return 2 + index % 28
    return 5 + index % 56


def build(workload: str, seed: int, generate) -> list[Instance]:
    """The instances of ``workload`` for ``seed``; ``generate`` is the package module."""
    if workload == "mixed":
        out = []
        for family in ("chain", "ladder", "split"):
            for i in range(MIXED_PER_FAMILY):
                size = _sweep_size(family, i)
                inst = generate.generate(family, size, seed * 1000 + i)
                out.append(Instance(inst.text, family, size, inst.meta))
        return out
    if workload == "ladder":
        return [
            Instance(generate.generate("ladder", n, seed).text, "ladder", n)
            for n in LADDER_RUNGS
        ]
    if workload == "wide-class":
        return [
            Instance(wide_class(random.Random(f"wide-class:{n}:{seed}"), n), "wide-class", n)
            for n in WIDE_CLASS_SIZES
        ]
    if workload == "crossing":
        return [
            Instance(crossing(random.Random(f"crossing:{k}:{seed}"), k), "crossing", k)
            for k in CROSSING_SIZES
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("mixed", "wide-class", "crossing", "ladder")
