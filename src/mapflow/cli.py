"""Configuration-driven experiment runner.

Every subcommand reads a strict JSON config, runs one experiment and writes
a CSV (LF endings, stable column order) plus a run manifest.  Identical
config and seed give byte-identical CSV bodies regardless of the worker
count.  A CSV's bytes are those of `%.17g` for float columns and `%d` for
int and bool columns, and `fmt` of the numbers in a list column (strings
and numbers mixed).  `write_csv` formats float, int and bool ndarrays in
numpy, exactly for 1e-11 < |x| < 1e16; any other float (zero, subnormal,
tiny, huge, nan, inf) takes `fmt`, value by value.

The config is checked against SCHEMA, with the --out, --workers and --seed
flags in place of their keys, before the output directory is created.

Exit codes: 0 success, 2 config/validation error (one-line message, no
CSV), 3 numerical failure (only the manifest is written, recording it).
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# Set before numpy loads, since its bundled OpenBLAS reads it once at start.
# The kernels avoid BLAS (see `maps._kick_body`) and its few calls are on
# 2d x 2d matrices, but by default OpenBLAS starts a worker thread that
# spin-waits for about 0.1 s of CPU in every CLI process, and a `--workers`
# pool would fork a multi-threaded parent.  A caller's own value is kept.

import argparse
import json
import sys
import time
from functools import cache, partial
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .errors import ConfigError, MapflowError
from .interp import M_MAX, interpolating_vf
from .maps import CATALOG, MapModel, catalog
from .resonance import (DIRICHLET_BUDGET, ResonanceSite, covering_params, locate_site,
                        resonant_action, scaled_block)

COMMANDS = ("interp", "embed-error", "energy", "resonance", "nucleus",
            "stability", "gen-recover")


def fmt(x) -> str:
    """Canonical formatting: ints and bools as integers, floats to 17 significant digits."""
    return f"{x:d}" if isinstance(x, (int, np.integer, np.bool_)) else f"{float(x):.17g}"


#: rows formatted at once: bounds one block's uint64 digit arrays and uint8
#: cell matrix, a few MB at most (4096 to 8192 rows wrote nucleus.csv fastest)
CSV_BLOCK = 4096

U64 = np.uint64
ASCII_0 = U64(0x3030303030303030)
LOW_BYTES = np.array([(1 << 8 * c) - 1 for c in range(9)], U64)  # the low c bytes
POW10 = np.array([10**k for k in range(20)], U64)


def _low_bytes(c: np.ndarray) -> np.ndarray:
    """Masks of the low c bytes of a word, c clipped to 0..8."""
    return LOW_BYTES[np.clip(c, 0, 8)]


def _digit_words(parts: list) -> list:
    """Each part (uint64, below 10^8) as a word of its eight decimal digits,
    the most significant in the low byte."""
    x = np.stack(parts)
    # split in lanes: 32-bit lanes of four digits, 16-bit of two, bytes of one;
    # (v * 5243) >> 19 is v // 100 below 43699, (v * 103) >> 10 is v // 10 below 179
    q = x // U64(10_000)
    x = q | ((x - q * U64(10_000)) << U64(32))
    q = ((x * U64(5243)) >> U64(19)) & U64(0x0000007F0000007F)
    x = q | ((x - q * U64(100)) << U64(16))
    q = ((x * U64(103)) >> U64(10)) & U64(0x000F000F000F000F)
    return list(q | ((x - q * U64(10)) << U64(8)))


def _split(u: np.ndarray, words: int) -> list:
    """u as `words` base-10^8 digits, the most significant first."""
    parts = []
    for _ in range(words - 1):
        head = u // U64(10**8)
        parts.append(u - head * U64(10**8))
        u = head
    return [u, *parts[::-1]]


def _byte_index(w: np.ndarray) -> np.ndarray:
    """Index of the highest nonzero byte of each word whose bytes are below 16
    (-1 for 0): the exponent of the nearest float is exact enough for that."""
    return (np.frexp(w)[1] - 1) >> 3


def _pack(fields: list) -> np.ndarray:
    """Cells from fields, 1-d arrays that each hold the next bytes of every
    cell (little-endian): an (n, width) uint8 matrix, without the fields that
    are NUL in every cell."""
    fields = [f for f in fields if f.dtype.kind == "S" or f.any()]
    cells = np.empty((len(fields[0]), sum(f.itemsize for f in fields)), np.uint8)
    at = 0
    for f in fields:
        cells[:, at:at + f.itemsize].view(f.dtype.newbyteorder("<"))[:, 0] = f
        at += f.itemsize
    return cells


def _int_cells(cols: list) -> np.ndarray:
    """`%d` and "," of int, uint and bool columns: (rows, ncols, width) cells, a
    sign and the digits of as many words as the largest magnitude needs, the
    leading zeros blank."""
    neg = np.stack([col < 0 for col in cols], axis=1).ravel()
    u = np.stack([col.astype(U64) for col in cols], axis=1).ravel()
    u = np.where(neg, -u, u)  # the magnitude, int64's minimum too
    top = int(u.max())
    w = _digit_words(_split(u, 1 + (top >= 10**8) + (top >= 10**16)))
    # the leading zeros: all digits but u's own (0 keeps its last digit)
    lead = 8 * len(w) - np.maximum(np.searchsorted(POW10, u, side="right"), 1)
    digits = [(w[k] | ASCII_0) & ~_low_bytes(lead - 8 * k) for k in range(len(w))]
    cells = _pack([neg * np.uint8(ord("-")), *digits, np.full(len(u), ord(","), np.uint8)])
    return cells.reshape(len(cols[0]), len(cols), -1)


class _Decades(NamedTuple):
    """Per decade e in -11..16 of |x| (at index e + 11): 5^(16 - e), which
    scales x to its 17 digits d0..d16, and `%g`'s layout of them: the digit
    before the point (de in fixed notation, d0 in exponent notation below
    e = -4, none (-1) for "0." from e = -4 to -1), the zeros between that
    point and d0 (-e - 1 of them) and the exponent after the digits ("e-XX"
    below e = -4), little-endian."""

    pow5: np.ndarray
    point: np.ndarray
    zeros: np.ndarray
    exp: np.ndarray


@cache
def _decades() -> _Decades:
    es = range(-11, 17)
    return _Decades(
        np.array([5 ** (16 - e) for e in es], U64),
        np.array([e if e >= 0 else -1 if e >= -4 else 0 for e in es]),
        np.array([int.from_bytes(b"0" * (-e - 1), "little") if -4 <= e < 0 else 0
                  for e in es], np.uint32),
        np.array([int.from_bytes(b"e-%02d" % -e, "little") if e < -4 else 0 for e in es],
                 np.uint32))


def _scaled(m: np.ndarray, q: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T = floor(m 2^q 10^(16 - e)) and whether rounding half to even takes T up,
    exactly: the product m 5^k (k = 16 - e in 1..27, below 2^116) in 32-bit
    limbs, shifted by q + k (right by at most 63 bits, left by at most 3)."""
    p = _decades().pow5[e + 11]
    low = U64(0xFFFFFFFF)
    m1, m0, p1, p0 = m >> U64(32), m & low, p >> U64(32), p & low
    m0p0 = m0 * p0
    mid = (m0p0 >> U64(32)) + m1 * p0 + m0 * p1
    lo = (mid << U64(32)) | (m0p0 & low)
    hi = m1 * p1 + (mid >> U64(32))
    s = q + 16 - e
    r = np.maximum(-s, 0).astype(U64)
    t = (((hi << (U64(63) - r)) << U64(1)) | (lo >> r)) << np.maximum(s, 0).astype(U64)
    mask = (U64(1) << r) - U64(1)  # the bits shifted out, their half (mask >> 1) + 1
    return t, (lo & mask) + (t & U64(1)) > (mask >> U64(1)) + U64(1)


def _float_cells(cols: list) -> np.ndarray:
    """`%.17g` and "," of float columns: (rows, ncols, width) cells, exact for
    1e-11 < |x| < 1e16; any other value takes `fmt`.

    With x = m 2^q, the 17 digits are N = m 2^q 10^(16-e) rounded half to
    even, where e = floor(log10 |x|).  np.log10 gives e only as an estimate,
    which the truncated product corrects both ways (10^16 <= T < 10^17); a
    round-up to 10^17 moves x to the next decade.  The digits up to the point
    are kept, those after it up to the last nonzero one."""
    with np.errstate(invalid="ignore"):  # a float32 signaling nan turns quiet
        x = np.stack(cols, axis=1).astype(np.float64).ravel()
    a = np.abs(x)
    fast = (a > 1e-11) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    bits = a.view(U64)
    m = (bits & U64(2**52 - 1)) | U64(2**52)
    q = (bits >> U64(52)).astype(np.int64) - 1075
    e = np.clip(np.floor(np.log10(a)).astype(np.int64), -11, 15)
    t, up = _scaled(m, q, e)
    while True:
        off = (t >= U64(10**17)).astype(np.int64) - (t < U64(10**16))
        wrong = np.flatnonzero(off)
        if not len(wrong):
            break
        e[wrong] += off[wrong]
        t[wrong], up[wrong] = _scaled(m[wrong], q[wrong], e[wrong])
    n = t + up
    top = n == U64(10**17)
    n[top] = U64(10**16)
    e += top
    decades, at = _decades(), e + 11
    point, zeros, exp = decades.point[at], decades.zeros[at], decades.exp[at]
    d0, w1, w2 = _split(n, 3)
    w1, w2 = _digit_words([w1, w2])
    last = np.where(w2 != 0, 9, 1) + _byte_index(np.where(w2 != 0, w2, w1))
    d0 = d0.astype(np.uint8) | np.uint8(ord("0"))
    w1, w2 = w1 | ASCII_0, w2 | ASCII_0
    whole, whole1, whole2 = point >= 0, _low_bytes(point), _low_bytes(point - 8)
    # the sign, "0" of "0.", the digits before the point, ".", the zeros after
    # it, the digits after them, the exponent
    fields = [(x < 0) * np.uint8(ord("-")), ~whole * np.uint8(ord("0")), d0 * whole,
              w1 & whole1, w2 & whole2, (last > point) * np.uint8(ord(".")), zeros,
              d0 * ~whole, w1 & ~whole1 & _low_bytes(last), w2 & ~whole2 & _low_bytes(last - 8),
              exp, np.full(len(x), ord(","), np.uint8)]
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = np.zeros(len(x), "S24")
        text[slow] = list(map(fmt, x[slow].tolist()))
        cells = _pack([text, *fields])
        cells[slow, 24:-1] = 0
    else:
        cells = _pack(fields)
    return cells.reshape(len(cols[0]), len(cols), -1)


def _lines(cols: list) -> bytes:
    """One block's lines: its cells joined by "," and ended by "\n", each
    cell its UTF-8 bytes without NULs.  Float columns, then int and bool
    columns, are formatted together; any other column (strings and numbers
    mixed) is its strings as given and `fmt` of its other values."""
    cells = {}
    for kinds, to_cells in (("f", _float_cells), ("iub", _int_cells)):
        js = [j for j, col in enumerate(cols)
              if isinstance(col, np.ndarray) and col.dtype.kind in kinds]
        if js:
            grid = to_cells([cols[j] for j in js])
            cells.update((j, grid[:, i]) for i, j in enumerate(js))
    for j, col in enumerate(cols):
        if j not in cells:  # right-aligned, so that "," is the last byte
            text = [(v if isinstance(v, str) else fmt(v)).encode() + b"," for v in col]
            width = max(map(len, text))
            cells[j] = np.frombuffer(b"".join(t.rjust(width, b"\0") for t in text),
                                     np.uint8).reshape(len(col), width)
    mat = np.concatenate([cells[j] for j in range(len(cols))], axis=1)
    mat[:, -1] = ord("\n")
    return mat[mat != 0].tobytes()


def write_csv(path: str, header: list[str], columns: list) -> str:
    """Write a CSV from columns of equal length, CSV_BLOCK rows at a time.

    The bytes are those of `%.17g` for float ndarrays, `%d` for int, uint and
    bool ndarrays, and for any other column (a list of strings and numbers)
    its strings as given and `fmt` of its other values.  Each block's cells
    are formatted in numpy (see `_float_cells` and `_int_cells`); a float
    outside 1e-11 < |x| < 1e16 takes `fmt`, value by value.  The header
    and the string cells are written in UTF-8.  NUL bytes pad the cells, so
    a string cell loses any NUL of its own."""
    n = max(map(len, columns), default=0)
    if any(len(col) != n for col in columns):
        raise ValueError(f"columns of unequal length: {[len(col) for col in columns]}")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for lo in range(0, n, CSV_BLOCK):
            fh.write(_lines([col[lo:lo + CSV_BLOCK] for col in columns]))
    return path


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

REQUIRED = object()


class Rule(NamedTuple):
    """One config key: its kind ("block" or a key of KINDS), the bound on its
    value and its default.  ``bound`` is ">= k" or "> x" for numbers, the
    choices of an enum, "d" or "2d" for the length of vectors, and the SCHEMA
    table of a block.  An absent or null key takes ``default``; a default of
    None means the runner derives the value from the model or leaves that
    output out."""

    kind: str
    bound: object = None
    default: object = REQUIRED


SCHEMA = {
    "config": {"map": Rule("block", "map"), "seed": Rule("int", ">= 0", None),
               "out": Rule("string", None, None), "workers": Rule("int", ">= 1", None)},
    "map": {"name": Rule("enum", CATALOG), "eps": Rule("number", ">= 0"),
            "params": Rule("block", "map.params", {})},
    "map.params": {"d": Rule("int", ">= 1", None), "eta": Rule("number", None, None)},
    "site": {"n": Rule("int", ">= 1"), "omega_star": Rule("vector", "d"),
             "gamma": Rule("number", "> 0", 2.0),
             "scaling": Rule("enum", ("nucleus", "lochak"), "nucleus")},
    "interp": {"points": Rule("vectors", "2d"), "m_list": Rule("orders"),
               "scheme": Rule("enum", ("newton", "gauss"), "newton"),
               "site": Rule("block", "site", None)},
    "embed-error": {"m_list": Rule("orders"), "grid_n": Rule("int", ">= 2", 4),
                    "tol": Rule("number", "> 0", 1e-12), "delta": Rule("number", "> 0", None),
                    "J_radius": Rule("number", "> 0", 1.0), "site": Rule("block", "site")},
    "energy": {"m_list": Rule("orders"), "blocks": Rule("int", ">= 1"),
               "x0": Rule("vector", "2d"), "quad_tol": Rule("number", "> 0", 1e-12),
               "site": Rule("block", "site")},
    "resonance": {"count": Rule("int", ">= 1", None), "I0_list": Rule("vectors", "d", None),
                  "N": Rule("number", "> 1", None), "gamma": Rule("number", "> 0", 2.0),
                  "I_box": Rule("number", "> 0", 0.9)},
    "nucleus": {"J0": Rule("vector", "d"), "phi0": Rule("vector", "d"),
                "budget": Rule("int", ">= 0"), "site": Rule("block", "site"),
                "fourier_modes": Rule("modes", "d", None), "quad_n": Rule("int", ">= 1", 64),
                "record_every": Rule("int", ">= 1", 1)},
    "stability": {"seeds": Rule("int", ">= 1"), "horizon": Rule("int", ">= 1"),
                  "I_box": Rule("number", "> 0", 0.9),
                  "confinement_radius": Rule("number", "> 0", None),
                  "pilot_horizon": Rule("int", ">= 1", 20000)},
    "gen-recover": {"base": Rule("vector", "2d"), "grid_n": Rule("int", ">= 2", 5),
                    "J_radius": Rule("number", "> 0", 0.4),
                    "quad_tol": Rule("number", "> 0", 1e-11)},
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


def _within(v, bound: Optional[str]) -> bool:
    op, lim = (bound or ">= -inf").split()
    return v > float(lim) if op == ">" else v >= float(lim)


def _list_of(v, n: Optional[int], ok) -> bool:
    """v is a list of n entries (any number > 0 if n is None), each passing ok."""
    return isinstance(v, list) and (len(v) == n if n else len(v) > 0) and all(map(ok, v))


# kind -> (what a value must be, test of value v against bound b and vector length n)
KINDS = {
    "int": ("an integer {b}", lambda v, b, n: _is_int(v) and _within(v, b)),
    "number": ("a number {b}", lambda v, b, n: _is_number(v) and _within(v, b)),
    "enum": ("one of {b}", lambda v, b, n: isinstance(v, str) and v in b),
    "string": ("a non-empty string", lambda v, b, n: isinstance(v, str) and v != ""),
    "orders": (f"a non-empty list of integers in 1..{M_MAX}",
               lambda v, b, n: _list_of(v, None, lambda m: _is_int(m) and 1 <= m <= M_MAX)),
    "vector": ("a list of {n} numbers", lambda v, b, n: _list_of(v, n, _is_number)),
    "vectors": ("a non-empty list of lists of {n} numbers",
                lambda v, b, n: _list_of(v, None, lambda r: _list_of(r, n, _is_number))),
    "modes": ("a non-empty list of nonzero lists of {n} integers",
              lambda v, b, n: _list_of(v, None, lambda r: _list_of(r, n, _is_int) and any(r))),
}


def _show(val) -> str:
    text = repr(val)
    return text if len(text) <= 60 else text[:57] + "..."


def _value(rule: Rule, where: str, val, d):
    """The checked value of one key: numbers as float, vectors as arrays."""
    kind, bound = rule.kind, rule.bound
    if kind == "block":
        return _block(SCHEMA[bound], where, val, d)
    if isinstance(val, np.ndarray):  # checked before: build_site walks a checked site again
        val = val.tolist()
    n = 2 * d if bound == "2d" else d
    phrase, ok = KINDS[kind]
    if not ok(val, bound, n):
        b = ", ".join(map(repr, bound)) if kind == "enum" else bound or ""
        must = phrase.format(b=b, n=f"{bound} = {n}").rstrip()
        raise ConfigError(f"{where} must be {must}, got {_show(val)}")
    if kind in ("vector", "vectors", "modes"):
        return np.array(val, dtype=int if kind == "modes" else float)
    return float(val) if kind == "number" else val


def _block(table: dict, where: str, cfg, d) -> dict:
    """Walk one SCHEMA table: no unknown keys, every key checked or defaulted."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be an object, got {_show(cfg)}")
    unknown = sorted(set(cfg) - set(table))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}")
    filled = {}
    for key, rule in table.items():
        path = key if where == "config" else f"{where}.{key}"
        val = cfg.get(key)
        if val is None and rule.default is REQUIRED:
            raise ConfigError(f"{path} is required")
        val = rule.default if val is None else val
        filled[key] = None if val is None else _value(rule, path, val, d)
    return filled


def validate(command: str, cfg: dict, model: MapModel) -> dict:
    """Check cfg for one command against SCHEMA; returns it with defaults filled in.
    The checks after the table walk tie two keys, or a key and the model, together."""
    cfg = _block({**SCHEMA["config"], command: Rule("block", command)}, "config", cfg, model.d)
    sub = cfg[command]
    if model.eps <= 0 and command in ("resonance", "nucleus"):
        raise ConfigError(f"{command} needs a perturbed map (map.eps > 0), got eps = {model.eps}")
    if model.eps <= 0 and (sub.get("site") or {}).get("scaling") == "nucleus":
        raise ConfigError(f"{command}.site.scaling 'nucleus' needs map.eps > 0, got {model.eps}")
    if command == "nucleus" and model.domain.norm_s <= 0:
        raise ConfigError(f"nucleus needs a map with a generating term, got {model.name!r}")
    if command == "interp" and sub["scheme"] == "gauss" and any(m % 2 for m in sub["m_list"]):
        raise ConfigError(f"interp.m_list must hold even orders for scheme 'gauss', "
                          f"got {sub['m_list']}")
    if command == "resonance":
        if (sub["count"] is None) == (sub["I0_list"] is None):
            raise ConfigError("resonance needs exactly one of count and I0_list")
        N = sub["N"] or covering_params(model, model.eps, sub["gamma"]).N_eps
        if N > DIRICHLET_BUDGET / model.d:
            raise ConfigError(f"resonance.N (default N_eps) must be at most "
                              f"{DIRICHLET_BUDGET / model.d:g}, got {N:g}")
    if cfg["seed"] is None and (command == "stability"
                                or (command == "resonance" and sub["count"] is not None)):
        raise ConfigError(f"command {command!r} requires an RNG seed (seed or --seed)")
    return cfg


def build_model(cfg: dict) -> MapModel:
    if cfg.get("map") is None:
        raise ConfigError("map is required")
    mp = _block(SCHEMA["map"], "map", cfg["map"], None)
    params = {k: v for k, v in mp["params"].items() if v is not None}
    try:
        return catalog(mp["name"], mp["eps"], **params)
    except ValueError as exc:
        raise ConfigError(f"map.params: {exc}") from exc


def build_site(model: MapModel, cfg: dict) -> tuple[ResonanceSite, str]:
    cfg = _block(SCHEMA["site"], "site", cfg, model.d)
    omega_star = cfg["omega_star"]
    I_star = resonant_action(model, omega_star, omega_star)
    cp = covering_params(model, model.eps, cfg["gamma"]) if model.eps > 0 else None
    rho_n = cp.rho_n(cfg["n"]) if cp else 1.0
    return (ResonanceSite(n=cfg["n"], omega_star=omega_star, I_star=I_star, rho_n=rho_n),
            cfg["scaling"])


# ---------------------------------------------------------------------------
# command implementations: each takes the validated config and the model and
# returns (output paths, extra manifest lines); only `stability` splits its work
# over --workers, one scan task per seed chunk on the model built here.  Each
# imports the layers it runs, so that a command loads no other's (`hamiltonian`,
# `experiments` and `nucleus` are not needed to validate a config)
# ---------------------------------------------------------------------------

def run_embed_error(cfg, model, out, workers):
    """Write embed-error.csv, the orders in turn; the manifest gets a flow_failures line."""
    from .hamiltonian import default_delta, embedding_error, unit_box

    sub = cfg["embed-error"]
    blk = scaled_block(model, *build_site(model, sub["site"]))
    delta = default_delta(model.domain.r) if sub["delta"] is None else sub["delta"]
    box = unit_box(model.d, sub["J_radius"])
    reps = [embedding_error(blk, m, box, sub["grid_n"], tol=sub["tol"], delta=delta)
            for m in sorted(sub["m_list"])]
    rows = [(r.m, r.eps_hat, r.max_error, r.bound, int(r.precondition_ok),
             "" if r.bound_satisfied is None else int(r.bound_satisfied),
             int(np.count_nonzero(~np.isnan(r.errors)))) for r in reps]
    path = write_csv(os.path.join(out, "embed-error.csv"),
                     ["m", "eps_hat", "max_error", "bound", "precondition_ok", "bound_satisfied",
                      "points_measured"], list(map(list, zip(*rows))))
    return [path], ["flow_failures: " + " ".join(f"m{r.m}={len(r.failures)}" for r in reps)]


def run_interp(cfg, model, out, workers):
    from .hamiltonian import _rowwise

    sub = cfg["interp"]
    target = model
    if sub["site"] is not None:
        target = scaled_block(model, *build_site(model, sub["site"]))
    pts, m_list, d = sub["points"], sub["m_list"], model.d
    # one batch per order; rows point-major: (point 0, each order), (point 1, ...
    X = np.empty((len(pts), len(m_list), 2 * d))
    status = np.full(X.shape[:2], "ok", dtype=object)
    for j, m in enumerate(m_list):
        fn = partial(interpolating_vf, target, m=m, scheme=sub["scheme"])
        for i, exc in _rowwise(fn, pts, X[:, j]).items():
            status[i, j] = type(exc).__name__
    xs, ms = np.repeat(pts, len(m_list), axis=0), np.tile(m_list, len(pts))
    header = ([f"x{j}" for j in range(2 * d)] + ["m"]
              + [f"X{j}" for j in range(2 * d)] + ["status"])
    return [write_csv(os.path.join(out, "interp.csv"), header,
                      [*xs.T, ms, *X.reshape(xs.shape).T, status.ravel().tolist()])], []


def run_energy(cfg, model, out, workers):
    from .experiments import energy_drift

    sub = cfg["energy"]
    site, scaling = build_site(model, sub["site"])
    reps = [energy_drift(model, site, m, sub["blocks"], sub["x0"], scaling, sub["quad_tol"])
            for m in sub["m_list"]]
    columns = [np.array(sub["m_list"]), np.full(len(reps), sub["blocks"]),
               *np.array([[r.max_increment, r.total, r.identity_residual] for r in reps]).T]
    header = ["m", "blocks", "max_increment", "total", "identity_residual"]
    return [write_csv(os.path.join(out, "energy.csv"), header, columns)], []


def run_resonance(cfg, model, out, workers):
    sub = cfg["resonance"]
    d = model.d
    seeds = sub["I0_list"]
    if seeds is None:
        I_box, rng = sub["I_box"], np.random.default_rng(cfg["seed"])
        seeds = rng.uniform(-I_box / np.sqrt(d), I_box / np.sqrt(d), size=(sub["count"], d))
    ns, table = [], []
    for I0 in seeds:
        site = locate_site(model, I0, sub["gamma"], sub["N"])
        ns.append(site.n)
        table.append([*site.omega_star, *site.I_star, site.rho_n,
                      np.max(np.abs(model.omega(I0) - site.omega_star))])
    header = (["n"] + [f"omega_star{j}" for j in range(d)]
              + [f"I_star{j}" for j in range(d)] + ["rho_n", "dirichlet_error"])
    return [write_csv(os.path.join(out, "resonance.csv"), header,
                      [np.array(ns), *np.array(table).T])], []


def run_nucleus(cfg, model, out, workers):
    from .nucleus import build_nucleus, is_resonant_mode, resonant_fourier_check, trapped_orbit

    sub = cfg["nucleus"]
    site, _ = build_site(model, sub["site"])
    nm = build_nucleus(model, site)
    rec = trapped_orbit(model, site, np.concatenate([sub["J0"], sub["phi0"]]),
                        budget=sub["budget"], nmodel=nm)
    d, n = model.d, rec.x.shape[0]
    k = np.arange(0, n, sub["record_every"])
    if rec.escaped:  # a sampled orbit still records the block where it left
        k = np.union1d(k, rec.exit_index)
    exited = k >= (rec.exit_index if rec.escaped else n)
    rows = slice(None) if len(k) == n else k  # every block: no copy of the orbit
    header = ["k"] + [f"J{j}" for j in range(d)] + ["E", "exited"]
    paths = [write_csv(os.path.join(out, "nucleus.csv"), header,
                       [k, *rec.x[rows, :d].T, rec.energy[rows], exited])]
    if sub["fourier_modes"] is not None:
        modes = sub["fourier_modes"]
        mags = np.array([resonant_fourier_check(nm, j, sub["quad_n"]) for j in modes])
        resonant = np.array([is_resonant_mode(j, site.omega_star) for j in modes])
        fheader = [f"j{i}" for i in range(d)] + ["magnitude", "resonant"]
        paths.append(write_csv(os.path.join(out, "nucleus_fourier.csv"), fheader,
                               [*modes.T, mags, resonant]))
    return paths, []


def run_stability(cfg, model, out, workers):
    """Write stability.csv and stability_calibration.txt.  Without a configured
    radius each chunk's task carries the pilot's seeds in its batch
    (`calibrated_scan`), so no step waits for a serial pilot; the chunks'
    calibrations must agree.  The chunks run in worker processes when there
    are several of each; concurrent.futures, and with it multiprocessing, is
    imported only then, so a one-worker run does not load them."""
    from .experiments import calibrated_scan, stability_scan

    sub = cfg["stability"]
    nseeds, I_box = sub["seeds"], sub["I_box"]
    d, rng = model.d, np.random.default_rng(cfg["seed"])
    # I0, then phi0: one (nseeds, 2d) draw would change the stream
    x0 = np.concatenate([rng.uniform(-I_box / np.sqrt(d), I_box / np.sqrt(d), (nseeds, d)),
                         rng.uniform(0.0, 1.0, (nseeds, d))], axis=1)
    # chunk granularity: at least 50 seeds per worker chunk so that chunked
    # runs do not multiply the per-step vector-dispatch overhead; per-seed
    # trajectories are element-wise, so results are chunking-independent
    k = max(1, min(workers, nseeds // 50 or 1))
    bounds = np.linspace(0, nseeds, k + 1, dtype=int)
    chunks = [x0[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    radius, pilot_c1 = sub["confinement_radius"], float("nan")
    if radius is None:
        task = partial(calibrated_scan, model, horizon=sub["horizon"],
                       pilot_horizon=sub["pilot_horizon"])
    else:
        task = partial(stability_scan, model, horizon=sub["horizon"], confinement_radius=radius)
    if workers > 1 and len(chunks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(task, chunks))
    else:
        parts = [task(c) for c in chunks]
    if radius is None:
        calibrations = {(cal, r) for _, cal, r in parts}
        if len(calibrations) != 1:
            raise RuntimeError(f"seed chunks calibrated differently: {calibrations}")
        (cal, radius), = calibrations
        pilot_c1, parts = cal.c1, [rec for rec, _, _ in parts]
    # chunks come back in seed order
    exc, exits, drift, escapes = (np.concatenate([getattr(rec, f) for rec in parts]) for f in
                                  ("excursion", "exit_index", "max_step_drift", "escape_index"))
    status = ["ok" if e < 0 else f"domain_escape@{e}" for e in escapes.tolist()]
    columns = [np.arange(nseeds), *x0.T, exc, exits, drift, status]
    header = (["seed"] + [f"I0_{j}" for j in range(d)] + [f"phi0_{j}" for j in range(d)]
              + ["excursion", "exit_index", "max_step_drift", "status"])
    path = write_csv(os.path.join(out, "stability.csv"), header, columns)
    meta = os.path.join(out, "stability_calibration.txt")
    with open(meta, "w") as fh:
        fh.write(f"pilot_c1 = {fmt(pilot_c1)}\n")
        fh.write(f"confinement_radius = {fmt(radius) if radius is not None else 'none'}\n")
    return [path, meta], []


def run_gen_recover(cfg, model, out, workers):
    from .hamiltonian import _rowwise, recover_generating, unit_box

    sub = cfg["gen-recover"]
    base, d = sub["base"], model.d
    pts = unit_box(d, sub["J_radius"]).grid(sub["grid_n"])
    vals, status = np.empty(len(pts)), np.full(len(pts), "ok", dtype=object)
    fn = partial(recover_generating, model, base, quad_tol=sub["quad_tol"])
    for i, exc in _rowwise(fn, pts, vals).items():
        status[i] = type(exc).__name__
    refs = [""] * len(pts)
    if model.s is not None:
        refs = ((model.h0(pts[:, :d]) - model.h0(base[:d]))
                + model.eps * (model.s(pts[:, :d], pts[:, d:]) - model.s(base[:d], base[d:])))
    header = ([f"pbar{j}" for j in range(d)] + [f"q{j}" for j in range(d)]
              + ["s_recovered", "s_catalog", "status"])
    return [write_csv(os.path.join(out, "gen-recover.csv"), header,
                      [*pts.T, vals, refs, status.tolist()])], []


RUNNERS = {"interp": run_interp, "embed-error": run_embed_error, "energy": run_energy,
           "resonance": run_resonance, "nucleus": run_nucleus, "stability": run_stability,
           "gen-recover": run_gen_recover}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run(command: str, config_path: str, out: Optional[str] = None,
        workers: Optional[int] = None, seed: Optional[int] = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    t0 = time.time()
    try:
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        try:
            with open(config_path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("top-level config must be an object")
        flags = {"out": out, "workers": workers, "seed": seed}
        cfg = {**raw, **{k: v for k, v in flags.items() if v is not None}}
        model = build_model(cfg)
        cfg = validate(command, cfg, model)
        if cfg["out"] is None:
            raise ConfigError("no output directory (config 'out' or --out)")
        try:
            os.makedirs(cfg["out"], exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir, seed_val = cfg["out"], cfg["seed"]
    try:
        paths, notes = RUNNERS[command](cfg, model, out_dir, cfg["workers"] or os.cpu_count() or 1)
        code, status = 0, "ok"
    except MapflowError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        code, status, paths, notes = 3, f"failed: {type(exc).__name__}", (), ()
    _write_manifest(out_dir, command, raw, model, seed_val, time.time() - t0, status,
                    paths, notes)
    return code


def _write_manifest(out_dir, command, cfg, model, seed_val, wall, status, paths, notes):
    dom = model.domain
    lines = [
        f"command: {command}",
        f"mapflow_version: {__version__}",
        f"status: {status}",
        f"seed: {seed_val}",
        f"wall_seconds: {wall:.3f}",
        f"map: {model.name} d={model.d} eps={fmt(model.eps)}",
        ("catalog_norms: "
         f"a={fmt(dom.norm_a)} b={fmt(dom.norm_b)} omega_prime={fmt(dom.norm_omega_prime)} "
         f"s={fmt(dom.norm_s)} h0pp={fmt(dom.norm_h0pp)} nu={fmt(dom.nu)} nu2={fmt(dom.nu2)}"),
        "outputs: " + " ".join(os.path.basename(p) for p in paths),
        *notes,
        "config: " + json.dumps(cfg, sort_keys=True),
    ]
    with open(os.path.join(out_dir, f"{command}_manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mapflow",
        description="experiment runner for the discrete-averaging map laboratory")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes, an integer >= 1 "
                             "(default: config value, else os.cpu_count())")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed, an integer >= 0 (overrides config)")
    args = parser.parse_args(argv)
    return run(args.command, args.config, args.out, args.workers, args.seed)


if __name__ == "__main__":
    sys.exit(main())
