"""Seeded inputs for the three benchmark workloads.

Each workload is a list of cases.  A case is one CLI command (``argv``
for ``frobenius_verify.cli.main``) plus its known answer: the exit code,
the verdict and, for theta, the level-space dimension.  ``generate``
writes the spec files and ``answers.json`` (every case with its answer)
into a directory, so the program only ever sees files and argv.

The same seed gives byte-identical files and the same case order.  The
structure of each chart expression (dimension, family, number and kind
of terms) is fixed by its slot in the list, and the seed picks the
coefficients and the variables; so seeds differ in content, not in
cost.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

# Dimension 3 appears twice so that, with every slot taking both
# families, the median command falls inside the dim-3 cluster and the
# 90th percentile inside the dim-4 one, not on a boundary between two.
CHART_DIMS = (1, 3, 2, 4, 3)
CHART_COPIES = 2
MAX_EXTRA_TERMS = 3
BOX = 0.45

# Genus 1 twice per genus-2 command: the median falls inside the genus-1
# cluster and the 90th percentile inside the genus-2 one.
THETA_GENERA = (1, 2, 1)
THETA_CYCLES = 4
THETA_LEVEL = 2
MIN_IM_TAU_EIG = 0.5


def _cli_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _num(x: float) -> str:
    return f"{x:.4f}"


def _signed(terms: list[tuple[float, str]]) -> str:
    """Join ``(coefficient, monomial)`` pairs into parser-friendly text."""
    out = ""
    for coeff, mono in terms:
        body = f"{_num(abs(coeff))}*{mono}"
        if not out:
            out = body if coeff >= 0 else f"-{body}"
        else:
            out += f" + {body}" if coeff >= 0 else f" - {body}"
    return out


def _linear(rng: random.Random, dim: int) -> str:
    """A holomorphic linear form in one or two variables."""
    axes = rng.sample(range(1, dim + 1), min(2, dim))
    return _signed([(rng.uniform(0.3, 1.2) * rng.choice((1, -1)), f"z{a}") for a in axes])


def _pluriharmonic(rng: random.Random, dim: int, kind: int) -> str:
    """Real or imaginary part of a holomorphic function: adds jet work
    but leaves the metric unchanged."""
    lin = _linear(rng, dim)
    if kind == 0:
        return f"re(exp({lin}))"
    if kind == 1:
        return f"im(({lin})^3)"
    a, b = rng.randrange(1, dim + 1), rng.randrange(1, dim + 1)
    return f"re({_num(rng.uniform(0.2, 0.8))}*z{a}*z{b}*({lin})^2)"


def _hermitian_form(rng: random.Random, dim: int) -> str:
    """``sum M_ab z_a zbar_b`` with M real symmetric and diagonally
    dominant, hence positive definite: a flat metric in disguise."""
    terms = []
    for a in range(1, dim + 1):
        for b in range(a, dim + 1):
            if a == b:
                terms.append((rng.uniform(1.0, 2.0), f"z{a}*zbar{a}"))
            else:
                terms.append(
                    (rng.uniform(-0.25, 0.25) / dim, f"(z{a}*zbar{b} + z{b}*zbar{a})")
                )
    return _signed(terms)


def _curved(rng: random.Random, dim: int, kind: int) -> str:
    """A potential with nonzero curvature everywhere in the box."""
    quad = [(rng.uniform(0.5, 1.5), f"z{a}*zbar{a}") for a in range(1, dim + 1)]
    if kind == 0:
        return f"log(1 + {_signed(quad)})"
    if kind == 1:
        head = min(2, dim)
        inner = _signed(quad[:head])
        rest = _signed(quad[head:])
        return f"exp({inner})" + (f" + {rest}" if rest else "")
    bump = f"(z1*zbar1 + z{dim}*zbar{dim})" if dim > 1 else "(z1*zbar1)"
    return f"{_signed(quad)} + {_num(rng.uniform(0.2, 0.4))}*{bump}^2"


def _verify_case(out: Path, seed: int, spec: dict, verdict: str) -> dict:
    """Write one spec file and return its ``verify`` command and answer."""
    path = out / f"{spec['name']}.json"
    path.write_text(json.dumps(spec, indent=1) + "\n")
    return {
        "label": spec["name"],
        "group": f"dim{spec['dim']}",
        "argv": ["--seed", str(_cli_seed(seed, spec["name"])), "--json", "verify", str(path)],
        "exit": 0,
        "verdict": verdict,
    }


def _chart_cases(rng: random.Random, seed: int, out: Path) -> list[dict]:
    cases = []
    for copy in range(CHART_COPIES):
        for slot, dim in enumerate(CHART_DIMS):
            for flat in (True, False):
                extra = (slot + 2 * copy + (0 if flat else 1)) % (MAX_EXTRA_TERMS + 1)
                base = _hermitian_form(rng, dim) if flat else _curved(rng, dim, (slot + copy) % 3)
                terms = [base] + [_pluriharmonic(rng, dim, (slot + k) % 3) for k in range(extra)]
                verdict = "frobenius" if flat else "not-frobenius"
                spec = {
                    "name": f"chart-{copy}{slot}-d{dim}-{'flat' if flat else 'curved'}-x{extra}",
                    "dim": dim,
                    "potential": " + ".join(terms),
                    "sample_domain": {"re": [[-BOX, BOX]] * dim, "im": [[-BOX, BOX]] * dim},
                    "expected_class": verdict,
                }
                cases.append(_verify_case(out, seed, spec, verdict))
    return cases


def _catalog_cases(rng: random.Random, seed: int, out: Path) -> list[dict]:
    from frobenius_verify import catalog, cli

    entries = catalog.hyperelliptic_catalog()
    rng.shuffle(entries)
    # expected_class "torus" / "hyperelliptic" both mean a frobenius verdict
    return [
        _verify_case(out, seed, dataclasses.asdict(cli.entry_to_spec(e)), "frobenius")
        for e in entries
    ]


def _period_matrix(rng: random.Random, genus: int, diagonal: bool) -> list:
    """Symmetric tau with Im tau diagonally dominant, so its smallest
    eigenvalue is at least ``MIN_IM_TAU_EIG``."""
    im = [[0.0] * genus for _ in range(genus)]
    re = [[0.0] * genus for _ in range(genus)]
    off_max = 0.0 if diagonal else 0.25
    for i in range(genus):
        re[i][i] = rng.uniform(-0.5, 0.5)
        for j in range(i + 1, genus):
            if not diagonal:
                re[i][j] = re[j][i] = rng.uniform(-0.5, 0.5)
                im[i][j] = im[j][i] = rng.uniform(-off_max, off_max)
    for i in range(genus):
        im[i][i] = MIN_IM_TAU_EIG + off_max * (genus - 1) + rng.uniform(0.1, 1.0)
    return [[[re[i][j], im[i][j]] for j in range(genus)] for i in range(genus)]


def _theta_cases(rng: random.Random, seed: int, out: Path) -> list[dict]:
    cases = []
    for cycle in range(THETA_CYCLES):
        for slot, genus in enumerate(THETA_GENERA):
            diagonal = genus == 1 or cycle % 2 == 0
            tau = _period_matrix(rng, genus, diagonal)
            label = f"theta-{cycle}{slot}-g{genus}-{'diag' if diagonal else 'full'}"
            cases.append(
                {
                    "label": label,
                    "group": f"genus{genus}",
                    "argv": [
                        "--seed", str(_cli_seed(seed, label)), "--json", "theta",
                        "--genus", str(genus), "--tau", json.dumps(tau),
                        "--level", str(THETA_LEVEL),
                    ],
                    "exit": 0,
                    "verdict": "pass",
                    "level_dimension": THETA_LEVEL**genus,
                }
            )
    return cases


_MAKERS = {
    "verify-charts": _chart_cases,
    "catalog-entries": _catalog_cases,
    "theta-suite": _theta_cases,
}
WORKLOADS = tuple(_MAKERS)


def generate(workload: str, seed: int, out: Path) -> list[dict]:
    """Write the workload's inputs and ``answers.json`` under ``out`` and
    return the cases in the order the closed loop issues them."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    out.mkdir(parents=True, exist_ok=True)
    cases = _MAKERS[workload](random.Random(f"{workload}:{seed}"), seed, out)
    (out / "answers.json").write_text(json.dumps(cases, indent=1) + "\n")
    return cases
