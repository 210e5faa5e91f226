"""Seeded inputs, expected answers and checked operations for each workload.

`generate` turns a workload name and a seed into a list of operation specs:
plain JSON data holding the inputs the program receives and the answer each
operation must give.  The expected answers come from sources that do not run
the path being timed:

- single-degree kernel dimensions follow the risky-degree rule of the paper
  (`risky_degrees` below, written here rather than taken from
  `classify_spectrum`);
- resonant kernels must span the lifted harmonic fields;
- dense cascade windows are certified trivial by a rank mod p computed here:
  rank_p <= rank_Q for an integer matrix, so rank_p = cols proves kernel 0;
- pinned lifted fields must be infeasible and the zero pin feasible;
- CLI reports must match, byte for byte, the canonical report this module
  builds from the expected answer in the program's report format.

`build_ops` turns specs into callables plus checks; it needs the program on
`sys.path` and is what the worker runs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("sweep", "dense_cascade", "resonant_windows", "bessel_series")

# 2^61 - 1.  No generated denominator is divisible by it.
PRIME = (1 << 61) - 1


def risky_degrees(sigma: tuple[Fraction, Fraction, Fraction]) -> set[int]:
    """Degrees at which a nontrivial leading term is not excluded (PAPER.md)."""
    s1, s2, s3 = sigma
    risky = set()
    if 0 in (s1 + s2, s1 + s3, s2 + s3):
        risky.add(1)
    if s1 + s2 + s3 == 0:
        risky.add(2)
    for a, b, c in ((s1, s2, s3), (s1, s3, s2), (s2, s3, s1)):
        if a == b:
            ratio = -c / a
            if ratio.denominator == 1 and ratio >= 3:
                risky.add(int(ratio))
    return risky


def rank_mod_p(rows: list[dict[int, Fraction]], p: int = PRIME) -> int:
    """Rank over GF(p) of rational rows whose denominators are prime to p."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {}
        for c, v in row.items():
            value = v.numerator * pow(v.denominator, -1, p) % p
            if value:
                r[c] = value
        while r:
            lead = min(r)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(r[lead], -1, p)
                pivots[lead] = {c: v * inv % p for c, v in r.items()}
                break
            factor = r[lead]
            for c, v in pivot.items():
                value = (r.get(c, 0) - factor * v) % p
                if value:
                    r[c] = value
                else:
                    del r[c]
    return len(pivots)


# ---------------------------------------------------------------------------
# Input generation (plain data; the same seed gives the same specs).
# ---------------------------------------------------------------------------


def _rational(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(1, span), rng.randint(1, span))


def _text(values) -> list[str]:
    return [str(Fraction(v)) for v in values]


def _sweep(rng: random.Random, small: bool) -> list[dict]:
    """Equal thirds of same-sign, mixed unflagged and (a, a, -i a) spectra."""
    per_kind = 1 if small else 20
    degrees = range(1, 6 if small else 9)
    spectra = []
    for _ in range(per_kind):
        sign = rng.choice((1, -1))
        spectra.append(("same_sign", tuple(sign * _rational(rng) for _ in range(3))))
    done = 0
    while done < per_kind:
        values = tuple(rng.choice((1, -1)) * _rational(rng) for _ in range(3))
        if len({v > 0 for v in values}) == 2 and not risky_degrees(values):
            spectra.append(("mixed", values))
            done += 1
    for _ in range(per_kind):
        a = rng.choice((1, -1)) * _rational(rng)
        spectra.append(("resonant", (a, a, -rng.randint(3, max(degrees)) * a)))
    ops = []
    for kind, sigma in spectra:
        risky = risky_degrees(sigma)
        for i in degrees:
            ops.append({
                "kind": "kernel_single",
                "label": f"{kind} i={i} sigma={','.join(_text(sigma))}",
                "degree": i,
                "sigma": _text(sigma),
                "expect_dim": 2 if i in risky else 0,
            })
    return ops


def dense_factor(rng: random.Random, i: int) -> dict:
    """f0 = 3/7, f2 = x^2 + y^2 - i z^2, dense random rational f3, f4, f5."""
    components = {2: {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(-i)}}
    for d in (3, 4, 5):
        components[d] = {
            (k1, k2, d - k1 - k2): rng.choice((1, -1)) * _rational(rng)
            for k1 in range(d, -1, -1)
            for k2 in range(d - k1, -1, -1)
        }
    return {
        "f0": "3/7",
        "components": {
            str(d): {
                "degree": d,
                "terms": [
                    {"k": list(m), "c": str(c)}
                    for m, c in sorted(terms.items(), reverse=True)
                ],
            }
            for d, terms in sorted(components.items())
        },
    }


def cascade_report(factor: dict, i: int, depth: int, version: str) -> bytes:
    """Canonical `cascade` report for a (1, 1, -i) factor with a trivial window."""
    report = {
        "command": "cascade",
        "inputs": {"factor": factor},
        "results": {
            "sigma": ["1", "1", str(-i)],
            "classification": {
                "same_sign": False,
                "plus_minus_pair": False,
                "trace_zero": False,
                "resonant_pair_degree": i,
                "risky_degrees": [i],
            },
            "risky": [{
                "degree": i,
                "depth": depth,
                "window_kernel_dim": 0,
                "projection_dim": 0,
                "kernel": [],
            }],
            "verdict": "TrivialOnly",
        },
        "artifact_version": version,
    }
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def bessel_report(order: int, version: str) -> bytes:
    report = {
        "command": "verify-bessel",
        "inputs": {"order": order},
        "results": {
            "order": order,
            "recurrence_ok": True,
            "bessel_match_ok": True,
            "cartesian_ok": True,
        },
        "artifact_version": version,
    }
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def certify_trivial_window(factor: dict, i: int, depth: int) -> dict:
    """Assemble the window and certify kernel 0 by rank mod p."""
    from beltrami_jets.cascade import TruncatedFactor, assemble_window

    matrix = assemble_window(TruncatedFactor.from_json(factor), i, depth).matrix
    return {"rank_p": rank_mod_p(matrix.row_dicts()), "cols": matrix.cols, "prime": PRIME}


def _dense_cascade(rng: random.Random, small: bool) -> list[dict]:
    from beltrami_jets import __version__

    depth = 3
    ops = []
    for i in range(3, 4 if small else 8):
        factor = dense_factor(rng, i)
        cert = certify_trivial_window(factor, i, depth)
        ops.append({
            "kind": "cli",
            "label": f"cascade i={i}",
            "command": "cascade",
            "options": ["--depth-nonzero", str(depth)],
            "factor": factor,
            "certificate": cert,
            "expect_code": 0,
            # Without the certificate the expected answer is unknown: no
            # digest can match, so the operation counts as failed.
            "expect_sha256": (
                hashlib.sha256(cascade_report(factor, i, depth, __version__)).hexdigest()
                if cert["rank_p"] == cert["cols"]
                else None
            ),
        })
    return ops


def _resonant_windows(rng: random.Random, small: bool) -> list[dict]:
    ops = []
    for i in range(3, 5 if small else 11):
        a = rng.choice((1, -1)) * _rational(rng)
        ops.append({
            "kind": "window_kernel",
            "label": f"offset window i={i}",
            "degree": i,
            "sigma": _text((a, a, -(i + 3) * a)),
            "expect_dim": 2,
            "expect_projection": 0,
            "span_degree": i + 3,
        })
        b = rng.choice((1, -1)) * _rational(rng)
        sigma = _text((b, b, -i * b))
        pin = [rng.choice((1, -1)) * rng.randint(1, 9), rng.choice((1, -1)) * rng.randint(0, 9)]
        rng.shuffle(pin)
        ops.append({
            "kind": "forced_source",
            "label": f"pinned lifted field i={i}",
            "degree": i,
            "sigma": sigma,
            "pin": pin,
            "expect": False,
        })
        ops.append({
            "kind": "forced_source",
            "label": f"zero pin i={i}",
            "degree": i,
            "sigma": sigma,
            "pin": [0, 0],
            "expect": True,
        })
    return ops


def _bessel_series(rng: random.Random, small: bool) -> list[dict]:
    from beltrami_jets import __version__

    # An odd number of orders keeps the median latency inside one order's
    # samples.  Orders 6m and 6m+1 lift the same series terms (degrees 0 and
    # 3 mod 6 up to the order plus one), so the seed changes the input but
    # not the amount of work.
    bands = range(12, 30, 6) if small else range(42, 108, 6)
    ops = []
    for base in bands:
        order = base + rng.randint(0, 1)
        ops.append({
            "kind": "cli",
            "label": f"verify-bessel N={order}",
            "command": "verify-bessel",
            "options": ["--order", str(order)],
            "expect_code": 0,
            "expect_sha256": hashlib.sha256(bessel_report(order, __version__)).hexdigest(),
        })
    return ops


_GENERATORS = {
    "sweep": _sweep,
    "dense_cascade": _dense_cascade,
    "resonant_windows": _resonant_windows,
    "bessel_series": _bessel_series,
}


def generate(workload: str, seed: int, small: bool = False) -> list[dict]:
    """Operation specs of one pass; `small` shrinks every dimension for tests."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), small)


# ---------------------------------------------------------------------------
# Operations (need the program importable).
# ---------------------------------------------------------------------------


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    # The report file a CLI operation writes; removed before each call.
    artifact: Path | None = None


def _span_check(vectors, col_labels, degree: int) -> bool:
    from beltrami_jets.golden import span_equals
    from beltrami_jets.harmonics import lifted_field

    return span_equals(vectors, col_labels, [lifted_field(degree, 1), lifted_field(degree, 2)])


def _kernel_single_op(spec: dict) -> Op:
    from beltrami_jets import single_degree

    i = spec["degree"]
    sigma = single_degree.SigmaTriple(*(Fraction(v) for v in spec["sigma"]))
    want = spec["expect_dim"]

    def check(basis) -> bool:
        if basis.dimension != want:
            return False
        return want == 0 or _span_check(basis.vectors, basis.col_labels, i)

    return Op(spec["label"], lambda: single_degree.kernel_single(i, sigma), check)


def _window_kernel_op(spec: dict) -> Op:
    from beltrami_jets import cascade
    from beltrami_jets.single_degree import SigmaTriple

    i = spec["degree"]
    factor = cascade.TruncatedFactor.diagonal(0, SigmaTriple(*(Fraction(v) for v in spec["sigma"])))

    def check(result) -> bool:
        basis, projection = result
        return (
            basis.dimension == spec["expect_dim"]
            and projection == spec["expect_projection"]
            and _span_check(basis.vectors, basis.col_labels, spec["span_degree"])
        )

    return Op(spec["label"], lambda: cascade.window_kernel(factor, i, 3), check)


def _forced_source_op(spec: dict) -> Op:
    from beltrami_jets import cascade
    from beltrami_jets.harmonics import lifted_field
    from beltrami_jets.single_degree import SigmaTriple

    i = spec["degree"]
    factor = cascade.TruncatedFactor.diagonal(0, SigmaTriple(*(Fraction(v) for v in spec["sigma"])))
    l1, l2 = spec["pin"]
    pinned = lifted_field(i, 1) * l1 + lifted_field(i, 2) * l2
    return Op(
        spec["label"],
        lambda: cascade.forced_source_feasible(factor, i, 3, pinned),
        lambda feasible: feasible is spec["expect"],
    )


def _cli_op(spec: dict, work_dir: Path, index: int) -> Op:
    from beltrami_jets import cli

    out = work_dir / f"report-{index}.json"
    argv = [spec["command"], *spec["options"], "--out", str(out)]
    if "factor" in spec:
        factor_path = work_dir / f"factor-{index}.json"
        factor_path.write_text(json.dumps(spec["factor"]), encoding="utf-8")
        argv += ["--factor", str(factor_path)]

    def check(code) -> bool:
        return (
            code == spec["expect_code"]
            and spec["expect_sha256"] is not None
            and hashlib.sha256(out.read_bytes()).hexdigest() == spec["expect_sha256"]
        )

    return Op(spec["label"], lambda: cli.main(argv), check, artifact=out)


def build_ops(specs: list[dict], work_dir: Path) -> list[Op]:
    """Callables for one pass; inputs are built here, before any timing.

    Each callable looks the program's entry point up in its module when it
    runs, so a traced run reaches the wrapper installed there.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for index, spec in enumerate(specs):
        kind = spec["kind"]
        if kind == "kernel_single":
            ops.append(_kernel_single_op(spec))
        elif kind == "window_kernel":
            ops.append(_window_kernel_op(spec))
        elif kind == "forced_source":
            ops.append(_forced_source_op(spec))
        elif kind == "cli":
            ops.append(_cli_op(spec, work_dir, index))
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
    return ops
