"""Output checks.  Each returns None when an output passes, else a short reason.

A check never raises: a bad output is counted as a failure and the loop goes
on.  The tolerances are those of the repository's cross-engine acceptance
criterion; the mirror tolerance sits far above the ~1e-15 round-off a mirror
circuit shows and far below any wrong answer.
"""

from __future__ import annotations

import json
import math

QUAD_VS_ORACLE = 1e-8
LIE_VS_QUAD = 1e-9
UNITARY_TOL = 1e-9
MIRROR_TOL = 1e-9


def _value(pair):
    """A JSON [re, im] pair as a complex number, or None if malformed or non-finite."""
    if not (isinstance(pair, list) and len(pair) == 2
            and all(isinstance(x, (int, float)) for x in pair)):
        return None
    v = complex(pair[0], pair[1])
    return v if math.isfinite(v.real) and math.isfinite(v.imag) else None


def _unitary_ok(v: complex) -> str | None:
    if abs(v.imag) > UNITARY_TOL * max(1.0, abs(v)):
        return f"unitary circuit gave a non-real value {v!r}"
    if abs(v.real) > 1.0 + UNITARY_TOL:
        return f"unitary circuit gave |<Z>| > 1: {v.real!r}"
    return None


def _payload(code, stdout: str, error: str | None):
    if error is not None:
        return None, f"exception: {error}"
    if code != 0:
        return None, f"exit {code}"
    try:
        return json.loads(stdout), None
    except ValueError:
        return None, "stdout is not one JSON document"


def check_run(item: dict, code, stdout: str, error: str | None = None) -> str | None:
    """`mgsim run`: finite value; unitary => real and |<Z>| <= 1; mirror => exact value."""
    out, why = _payload(code, stdout, error)
    if why:
        return why
    if (out.get("n"), out.get("k")) != (item["n"], item["k"]):
        return f"echoed n, k = {out.get('n')}, {out.get('k')}; expected {item['n']}, {item['k']}"
    v = _value(out.get("expectation"))
    if v is None:
        return f"non-finite or missing expectation {out.get('expectation')!r}"
    if item["unitary"] and (why := _unitary_ok(v)):
        return why
    if item.get("expected") is not None and abs(v - item["expected"]) > MIRROR_TOL:
        return f"mirror circuit gave {v!r}, exact value {item['expected']!r}"
    return None


def check_compare(item: dict, code, stdout: str, error: str | None = None) -> str | None:
    """`mgsim compare`: engines agree, within the criterion-7 gaps."""
    out, why = _payload(code, stdout, error)
    if why:
        return why
    engines = out.get("engines", {})
    vals = {}
    for name in ("quadratic", "lie", "dense"):
        v = _value(engines.get(name, {}).get("expectation"))
        if v is None:
            return f"{name}: non-finite or missing expectation"
        vals[name] = v
    if out.get("agree") is not True:
        return f"engines disagree: max_deviation {out.get('max_deviation')!r}"
    if abs(vals["quadratic"] - vals["dense"]) > QUAD_VS_ORACLE:
        return f"quadratic vs oracle gap {abs(vals['quadratic'] - vals['dense']):.2e}"
    if abs(vals["lie"] - vals["quadratic"]) > LIE_VS_QUAD:
        return f"lie vs quadratic gap {abs(vals['lie'] - vals['quadratic']):.2e}"
    if item["unitary"]:
        return _unitary_ok(vals["quadratic"])
    return None


CHECKS = {"run": check_run, "compare": check_compare}
