"""The benchmark's three closed-loop workloads and the requests they issue.

Every request is a ``hopflck`` command line together with its known answer
(see :mod:`oracles`).  A workload turns (seed, request index) into a
request, so the same seed always gives the same stream; the program receives
only the generated arguments and input files.

* ``verify-dense``: ``verify --entry vaisman`` at 50 000 points, a fresh point
  seed per request.  Vaisman is the deep-DAG entry (implicit t, exp), so
  array evaluation and the batched eigensolves sit on the critical path.
* ``lee-dense``: ``solve-lee --entry example1`` at 20 000 points with the
  full per-point report captured in memory.  JSON encoding in ``cli`` and the
  per-point least squares in ``verify`` dominate; expression evaluation is
  rational and cheap.
* ``param-sweep``: small (500-point) ``verify`` requests over fresh
  admissible parameters of every catalog entry, with one request in twenty
  a map-tooling call or a known-negative control.  Symbolic construction,
  per-call dispatch and global-cache growth dominate.

Every run also issues :func:`control_round` once, so each command and each
known-negative verdict is checked on every workload.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .oracles import EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, pair

DEFAULT_WEIGHTS = (1.0, 1.5)
SPECIAL_EVERY = 20  # one request in twenty is a map call or a control


@dataclass(frozen=True)
class Request:
    """One ``hopflck`` invocation and its known answer."""

    argv: tuple
    expect: dict
    points: int = 0                 # sample points the request certifies
    entry: tuple | None = None      # (name, build parameters) of the entry
    probe: tuple | None = None      # (weights, dim, count, seed) for the t probe


@dataclass(frozen=True)
class Workload:
    name: str
    rate: float     # requests per second of --seconds at the defining commit
    make: object    # (seed, index, inputs) -> Request

    def budget(self, seconds: float) -> int:
        """Requests per run: fixed by --seconds, never by the program's speed.

        A fixed amount of work keeps peak memory and the global-cache growth
        comparable between a slow and a fast commit.
        """
        return max(4, round(seconds * self.rate))


def _rng(seed: int, *salt) -> np.random.Generator:
    return np.random.default_rng([seed, *salt])


def _num(x) -> str:
    return repr(float(x))


def _cplx(c: complex) -> str:
    """A complex number as argparse's ``complex`` type parses it."""
    c = complex(c)
    sign = "" if repr(c.imag).startswith("-") else "+"
    return "%r%s%rj" % (c.real, sign, c.imag)


# ---------------------------------------------------------------------------
# Catalog verification requests
# ---------------------------------------------------------------------------


def _argv(command, name, params, points, seed) -> tuple:
    argv = [command, "--entry", name, "--points", str(points),
            "--seed", str(seed)]
    for key, value in params.items():
        # "--key=value": a value such as "-0.5+1j" would otherwise parse
        # as an option name.
        if isinstance(value, complex) and key in ("mu", "alpha"):
            argv += ["--%s-re=%s" % (key, _num(value.real)),
                     "--%s-im=%s" % (key, _num(value.imag))]
        elif isinstance(value, complex):
            argv.append("--%s=%s" % (key, _cplx(value)))
        else:
            argv.append("--%s=%s" % (key, _num(value)))
    return tuple(argv)


def _vaisman_params(rng):
    r1, r2 = (float(x) for x in rng.uniform(0.5, 2.0, 2))
    phases = rng.uniform(0.2, 3.0, 2) * rng.choice([-1, 1], 2)
    p1, p2 = (float(x) for x in phases)
    return {"r1": r1, "r2": r2, "p1": p1, "p2": p2}


def _unit_phase(rng, lo, hi) -> complex:
    radius = rng.uniform(lo, hi)
    return complex(radius * np.exp(1j * rng.uniform(-np.pi, np.pi)))


def verify_request(name: str, params: dict, points: int, seed: int) -> Request:
    """``verify`` on a catalog entry; every admissible suite passes."""
    if name == "vaisman":
        shown = {k: params[k] for k in ("p1", "p2", "r1", "r2")}
        weights = (params["r1"], params["r2"])
    else:
        weights = DEFAULT_WEIGHTS
        if name == "example1":
            shown = {"mu": pair(params["mu"])}
        elif name == "example2":
            shown = {"mu": pair(params["mu"]), "n": 2}
        else:
            shown = {"alpha": pair(params["alpha"]), "t": pair(params["t"])}
    expect = {"exit": EXIT_PASS, "kind": "suite", "entry": name,
              "points": points, "seed": seed, "parameters": shown}
    return Request(_argv("verify", name, params, points, seed), expect,
                   points, (name, dict(params)), (weights, 2, points, seed))


def lee_request(points: int, seed: int) -> Request:
    """``solve-lee`` on example1, whose Lee form has a closed form."""
    expect = {"exit": EXIT_PASS, "kind": "lee", "entry": "example1",
              "points": points, "seed": seed}
    return Request(_argv("solve-lee", "example1", {}, points, seed), expect,
                   points, ("example1", {}),
                   (DEFAULT_WEIGHTS, 2, points, seed))


def random_entry_params(name: str, rng) -> dict:
    """Fresh admissible parameters: weights > 0, phases != 0, |mu| > 1,
    0 < |alpha| < 1."""
    if name == "vaisman":
        return _vaisman_params(rng)
    if name in ("example1", "example2"):
        return {"mu": _unit_phase(rng, 1.2, 4.0)}
    return {"alpha": _unit_phase(rng, 0.3, 0.8),
            "t": complex(*rng.uniform(-2.0, 2.0, 2))}


# ---------------------------------------------------------------------------
# Map-tooling inputs written at set-up, with answers known by construction
# ---------------------------------------------------------------------------


def _jordan_matrix(blocks) -> np.ndarray:
    n = sum(size for _, size in blocks)
    j = np.zeros((n, n), dtype=complex)
    pos = 0
    for lam, size in blocks:
        for k in range(size):
            j[pos + k, pos + k] = lam
            if k + 1 < size:
                j[pos + k, pos + k + 1] = 1.0
        pos += size
    return j


def _separated_eigenvalues(rng, count, gap=0.25):
    values = []
    while len(values) < count:
        lam = _unit_phase(rng, 0.3, 2.0)
        if all(abs(lam - mu) >= gap for mu in values):
            values.append(lam)
    return values


def _random_blocks(rng):
    sizes = [[2], [2, 1], [3], [2, 2], [3, 1], [1, 1, 2]][int(rng.integers(6))]
    return list(zip(_separated_eigenvalues(rng, len(sizes)), sizes))


def _exact_similarity(rng, j):
    """P D J D^-1 P^T with D a diagonal of powers of two and P a permutation.

    Both factors are exact in floating point, so the Jordan structure of the
    result is exactly that of J.
    """
    n = j.shape[0]
    d = 2.0 ** rng.integers(-2, 3, n)
    scaled = j * d[:, None] / d[None, :]
    perm = rng.permutation(n)
    return scaled[np.ix_(perm, perm)]


def _matrix_json(a) -> dict:
    return {"matrix": [[pair(v) for v in row] for row in np.asarray(a)]}


def _polynomial_map(rng):
    """A contraction-shaped map of C^2: triangular linear part + higher terms."""
    diag = [_unit_phase(rng, 0.3, 0.8) for _ in range(2)]
    tables = [{(1, 0): diag[0], (0, 1): complex(*rng.uniform(-1, 1, 2))},
              {(0, 1): diag[1]}]
    for table in tables:
        for mono in ((2, 0), (1, 1), (0, 3)):
            if rng.random() < 0.7:
                table[mono] = complex(*rng.uniform(-1, 1, 2))
    return tables


def _scaled_tables(tables, t):
    """T_t^-1 g T_t for uniform scaling: degree-k terms gain t^(k-1)."""
    if t == 0:
        return [{m: c for m, c in table.items() if sum(m) == 1}
                for table in tables]
    return [{m: c * t ** (sum(m) - 1) for m, c in table.items()}
            for table in tables]


def _map_json(tables) -> dict:
    return {"dim": len(tables),
            "components": [[{"monomial": list(m), "coeff": pair(c)}
                            for m, c in sorted(table.items())]
                           for table in tables]}


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


VARIANTS = 4


def write_inputs(directory: str, seed: int) -> dict:
    """Write the seeded map and matrix files; return their requests by kind.

    Each kind maps to a list of requests (one per seeded variant); the
    negative controls have a single variant.
    """
    rng = _rng(seed, 7)
    kinds = {"jordan": [], "diagonalize": [], "linearize": [],
             "contraction": []}
    for v in range(VARIANTS):
        blocks = _random_blocks(rng)
        j = _jordan_matrix(blocks)
        path = os.path.join(directory, "jordan-%d.json" % v)
        _write(path, _matrix_json(_exact_similarity(rng, j)))
        kinds["jordan"].append(Request(
            ("jordan", "--file", path),
            {"exit": EXIT_PASS, "kind": "jordan", "blocks": blocks}))

        path = os.path.join(directory, "canonical-%d.json" % v)
        _write(path, _matrix_json(j))
        t = complex(*rng.uniform(-1.5, 1.5, 2))
        at_t = np.where(j == 1.0, t, j)
        kinds["diagonalize"].append(Request(
            ("deform", "--file", path, "--family", "diagonalize",
             "--t=" + _cplx(t)),
            {"exit": EXIT_PASS, "kind": "diagonalize", "at_t": at_t,
             "limit0": np.diag(np.diag(j))}))

        tables = _polynomial_map(rng)
        path = os.path.join(directory, "map-%d.json" % v)
        _write(path, _map_json(tables))
        t = complex(*rng.uniform(-1.5, 1.5, 2))
        kinds["linearize"].append(Request(
            ("deform", "--file", path, "--family", "linearize",
             "--t=" + _cplx(t)),
            {"exit": EXIT_PASS, "kind": "linearize",
             "at_t": _scaled_tables(tables, t),
             "limit0": _scaled_tables(tables, 0)}))

        lam = _unit_phase(rng, 0.3, 0.7)
        path = os.path.join(directory, "contracting-%d.json" % v)
        _write(path, _matrix_json(_jordan_matrix([(lam, 2)])))
        kinds["contraction"].append(Request(
            ("contraction", "--file", path),
            {"exit": EXIT_PASS, "kind": "contraction", "is_contraction": True,
             "spectral_radius": abs(lam)}))

    # Known-negative controls: an expanding Jordan block is no contraction,
    # kodaira displays no 2-form to solve against, and a negative weight is
    # inadmissible.
    path = os.path.join(directory, "expanding.json")
    _write(path, _matrix_json(_jordan_matrix([(1.5, 2)])))
    kinds["expanding"] = [Request(
        ("contraction", "--file", path),
        {"exit": EXIT_FAIL, "kind": "contraction", "is_contraction": False,
         "spectral_radius": 1.5})]
    kinds["lee-kodaira"] = [Request(
        ("solve-lee", "--entry", "kodaira", "--points", "16"),
        {"exit": EXIT_CONFIG, "kind": "refused"})]
    kinds["bad-weight"] = [Request(
        ("verify", "--entry", "vaisman", "--r1=-0.5", "--points", "16"),
        {"exit": EXIT_CONFIG, "kind": "refused"})]
    return kinds


SPECIAL_KINDS = ("jordan", "diagonalize", "linearize", "contraction",
                 "expanding", "lee-kodaira", "bad-weight")


def control_round(seed: int, inputs: dict) -> list:
    """One request of every special kind plus three small catalog checks."""
    rng = _rng(seed, 11)
    small = [
        verify_request(name, random_entry_params(name, rng), 64,
                       int(rng.integers(2 ** 31)))
        for name in ("vaisman", "example2")
    ]
    small.append(lee_request(64, int(rng.integers(2 ** 31))))
    return small + [inputs[kind][0] for kind in SPECIAL_KINDS]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

VAISMAN_DEFAULTS = {"r1": 1.0, "r2": 1.5, "p1": 1.0, "p2": 2.0}
# The map calls and controls take every fifth vaisman slot, so the mix is
# 25% each of example1, example2 and kodaira, 20% vaisman and 5% others.
# Each kind forms its own cluster of latencies; with this split the median
# falls inside the example2 cluster rather than on the edge between two
# clusters, where the tails of both would move it.
SWEEP_ENTRIES = ("example1", "example2", "kodaira", "vaisman")


def _verify_dense(seed, index, inputs):
    point_seed = int(_rng(seed, index).integers(2 ** 31))
    return verify_request("vaisman", VAISMAN_DEFAULTS, 50_000, point_seed)


def _lee_dense(seed, index, inputs):
    point_seed = int(_rng(seed, index).integers(2 ** 31))
    return lee_request(20_000, point_seed)


def _param_sweep(seed, index, inputs):
    rng = _rng(seed, index)
    if index % SPECIAL_EVERY == SPECIAL_EVERY - 1:
        kind = SPECIAL_KINDS[(index // SPECIAL_EVERY) % len(SPECIAL_KINDS)]
        variants = inputs[kind]
        return variants[int(rng.integers(len(variants)))]
    name = SWEEP_ENTRIES[index % len(SWEEP_ENTRIES)]
    return verify_request(name, random_entry_params(name, rng), 500,
                          int(rng.integers(2 ** 31)))


WORKLOADS = {
    "verify-dense": Workload("verify-dense", 0.9, _verify_dense),
    "lee-dense": Workload("lee-dense", 0.35, _lee_dense),
    "param-sweep": Workload("param-sweep", 80.0, _param_sweep),
}
