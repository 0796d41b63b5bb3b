"""Output checks for benchmark operations.

Each check takes an operation, its exit code and its parsed stdout, and
returns a list of problems (empty when the output is correct).  The rule
functionals below are written from the formulas in the paper, not taken
from the program, so that a check does not inherit a bug it looks for.

Tolerances:
  * simplex: coordinates >= 0 and |sum - 1| <= 1e-9;
  * defining identity of a QA pool: ||g(x) - t|| <= 1e-8 * max(1, ||t||) in
    the sum-zero space, the scaling qa_pool itself certifies with;
  * generalized pools (a first-order solver stopping at KKT 1e-8): the same
    identity within 1e-6 * max(1, ||t||);
  * closed forms (linear / normalized geometric average), scores and
    Bregman divergences: 1e-9 relative to the magnitudes involved.
"""

from __future__ import annotations

import json
import math

import numpy as np

SIMPLEX_TOL = 1e-9
IDENTITY_TOL = 1e-8
GENERALIZED_IDENTITY_TOL = 1e-6
VALUE_RTOL = 1e-9

# reference comparison: values computed by algebra and scalar root-finds
# may move in the last digits when a kernel changes, values at the end of
# an iterative solve (SPG) within its tolerance
REF_RTOL = 1e-9
REF_SOLVER_RTOL = 1e-6
# large score and divergence matrices are recorded as their first rows
# plus the sum of all entries
SAMPLED_ROWS = 3


# --------------------------------------------------------------------------
# independent rule functionals
# --------------------------------------------------------------------------

def _split(family: str) -> tuple[str, float | None]:
    name, _, arg = family.partition(":")
    return name, (float(arg) if arg else None)


def expected_reward(family: str, p: np.ndarray) -> float:
    name, c = _split(family)
    if name == "quadratic":
        return float(np.sum(p * p))
    if name == "log":
        return float(np.sum(p * np.log(p)))
    if name == "neglog":
        return float(-np.sum(np.log(p)))
    if name == "power":
        return float((-1.0 if 0.0 < c < 1.0 else 1.0) * np.sum(p**c))
    if name == "spherical":
        return float(np.sum(p**c) ** (1.0 / c))
    if name == "tsallis":
        return float(np.sum(p**c))
    if name == "hs":
        return float(-np.prod(p ** (1.0 / p.size)))
    raise ValueError(family)


def gradient(family: str, p: np.ndarray) -> np.ndarray:
    """Raw gradient of G; only its sum-zero part is meaningful."""
    name, c = _split(family)
    if name == "quadratic":
        return 2.0 * p
    if name == "log":
        return np.log(p) + 1.0
    if name == "neglog":
        return -1.0 / p
    if name == "power":
        return (-1.0 if 0.0 < c < 1.0 else 1.0) * c * p ** (c - 1.0)
    if name == "spherical":
        return np.sum(p**c) ** (1.0 / c - 1.0) * p ** (c - 1.0)
    if name == "tsallis":
        return c * p ** (c - 1.0)
    if name == "hs":
        return -np.prod(p ** (1.0 / p.size)) / (p.size * p)
    raise ValueError(family)


def _canon(v: np.ndarray) -> np.ndarray:
    return v - v.mean()


def target_exposure(family: str, P: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted average of the inputs' exposures, in the sum-zero space."""
    w = w / w.sum()
    return _canon(w @ np.stack([_canon(gradient(family, p)) for p in P]))


def score(family: str, p: np.ndarray, j: int) -> float:
    g = _canon(gradient(family, p))
    return expected_reward(family, p) + float(g[j - 1]) - float(g @ p)


def bregman(family: str, p: np.ndarray, q: np.ndarray) -> float:
    gq = _canon(gradient(family, q))
    return expected_reward(family, p) - expected_reward(family, q) - float(gq @ (p - q))


# --------------------------------------------------------------------------
# per-operation checks
# --------------------------------------------------------------------------

def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= VALUE_RTOL * max(1.0, abs(scale))


def _simplex_problems(x, what: str) -> list[str]:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        return [f"{what} is not a finite vector"]
    out = []
    if x.min() < 0.0:
        out.append(f"{what} has a negative coordinate {x.min()!r}")
    if abs(x.sum() - 1.0) > SIMPLEX_TOL:
        out.append(f"{what} sums to {x.sum()!r}")
    return out


def _check_pool(op, doc) -> list[str]:
    fam, P, w = op.data["family"], op.data["P"], op.data["w"]
    x = np.asarray(doc["pooled"], dtype=float)
    out = _simplex_problems(x, "pooled")
    if out:
        return out
    t = target_exposure(fam, P, w)
    scale = max(1.0, float(np.linalg.norm(t)))
    identity = float(np.linalg.norm(_canon(gradient(fam, x)) - t))
    if identity > IDENTITY_TOL * scale:
        out.append(f"defining identity off by {identity:.3e} (scale {scale:.3e})")
    if not doc["residual"] <= IDENTITY_TOL * scale:
        out.append(f"reported residual {doc['residual']!r} above {IDENTITY_TOL} * {scale:.3e}")
    wn = w / w.sum()
    if fam == "quadratic":
        ref = wn @ P
    elif fam == "log":
        ref = np.exp(wn @ np.log(P))
        ref /= ref.sum()
    else:
        ref = None
    if ref is not None and np.abs(x - ref).max() > VALUE_RTOL:
        out.append(f"{fam} pool differs from the closed form by {np.abs(x - ref).max():.3e}")
    return out


def _check_pool_generalized(op, doc) -> list[str]:
    out = _simplex_problems(doc["pooled"], "pooled")
    if out or op.data["family"] == "tsallis:3":
        return out  # unattainable average: the minimizer sits on a face
    fam, P, w = op.data["family"], op.data["P"], op.data["w"]
    x = np.asarray(doc["pooled"], dtype=float)
    t = target_exposure(fam, P, w)
    scale = max(1.0, float(np.linalg.norm(t)))
    identity = float(np.linalg.norm(_canon(gradient(fam, x)) - t))
    if identity > GENERALIZED_IDENTITY_TOL * scale:
        out.append(f"generalized pool misses the identity by {identity:.3e}")
    return out


def _check_score(op, doc) -> list[str]:
    fam, P = op.data["family"], op.data["P"]
    experts = doc["experts"]
    if len(experts) != len(P):
        return [f"{len(experts)} experts scored, expected {len(P)}"]
    n = P.shape[1]
    for p, e in zip(P, experts):
        if len(e["scores"]) != n:
            return [f"expert {e['id']} has {len(e['scores'])} scores, expected {n}"]
        scale = 1.0 + float(np.abs(gradient(fam, p)).max())
        if not _close(e["expected_reward"], expected_reward(fam, p), scale):
            return [f"expert {e['id']} expected reward {e['expected_reward']!r}"]
        for j, s in enumerate(e["scores"], start=1):
            if not _close(s, score(fam, p, j), scale):
                return [f"expert {e['id']} outcome {j}: score {s!r} != {score(fam, p, j)!r}"]
    return []


def _check_bregman(op, doc) -> list[str]:
    fam, P = op.data["family"], op.data["P"]
    D = np.asarray(doc["divergence"], dtype=float)
    if D.shape != (len(P), len(P)):
        return [f"divergence matrix has shape {D.shape}"]
    for a, p in enumerate(P):
        for b, q in enumerate(P):
            scale = 1.0 + float(np.abs(gradient(fam, q)).max()) + abs(expected_reward(fam, p))
            if not _close(D[a, b], bregman(fam, p, q), scale):
                return [f"D[{a},{b}] = {D[a, b]!r}, expected {bregman(fam, p, q)!r}"]
    return []


def _check_probe(op, doc) -> list[str]:
    if op.data["family"] == "tsallis:3":
        ok = doc["canonical_vertex_failure"] is True
        return [] if ok else ["tsallis:3 probe missed the vertex-pair failure"]
    if doc["failures"] or doc["solver_failures"]:
        return [f"convex-exposure probe failed {doc['failures']}+{doc['solver_failures']} times"]
    return []


def _check_audit(op, doc) -> list[str]:
    return [] if doc["all_passed"] is True else ["audit did not pass"]


def _check_learn(op, doc) -> list[str]:
    out = []
    if len(doc["per_step_loss"]) != op.data["T"] or doc["T"] != op.data["T"]:
        out.append(f"{len(doc['per_step_loss'])} per-step losses, expected {op.data['T']}")
    if not all(math.isfinite(v) for v in doc["per_step_loss"]):
        out.append("non-finite per-step loss")
    if not doc["cumulative_regret"] <= doc["bound"]:
        out.append(f"regret {doc['cumulative_regret']!r} above bound {doc['bound']!r}")
    if doc["exposure_bound_exceeded"] is not False:
        out.append("exposure bound exceeded: --M does not dominate the stream")
    out += _simplex_problems(doc["best_weights"], "best_weights")
    out += _simplex_problems(doc["final_weights"], "final_weights")
    return out


_CHECKS = {
    "pool": _check_pool,
    "pool_generalized": _check_pool_generalized,
    "score": _check_score,
    "bregman": _check_bregman,
    "probe": _check_probe,
    "audit": _check_audit,
    "learn": _check_learn,
}


def check(op, exit_code: int, stdout: str) -> list[str]:
    """Problems with one operation's result; empty when it is correct."""
    if exit_code != op.expect_exit:
        return [f"exit code {exit_code}, expected {op.expect_exit}"]
    if exit_code != 0:
        return [] if not stdout else ["printed a result despite failing"]
    try:
        doc = json.loads(stdout)
        return _CHECKS[op.kind](op, doc)
    except (ValueError, KeyError, TypeError) as e:
        return [f"malformed output: {e!r}"]


# --------------------------------------------------------------------------
# reference values
# --------------------------------------------------------------------------

def observables(op, stdout: str) -> dict:
    """The numbers of one result that the reference file records.

    Each value is tagged with the tolerance class it is compared under:
    "exact" (flags and counts), "value" (REF_RTOL) or "solver"
    (REF_SOLVER_RTOL).
    """
    if not stdout:
        return {}
    doc = json.loads(stdout)
    if op.kind == "pool":
        return {"value": {"pooled": doc["pooled"]}, "exact": {"method": doc["method"]}}
    if op.kind == "pool_generalized":
        return {"solver": {"pooled": doc["pooled"]}, "exact": {"method": doc["method"]}}
    if op.kind == "score":
        scores = [e["scores"] for e in doc["experts"]]
        return {"value": {"scores_head": scores[:SAMPLED_ROWS], "scores_sum": _fsum(scores),
                          "expected_reward": [e["expected_reward"] for e in doc["experts"]]}}
    if op.kind == "bregman":
        D = doc["divergence"]
        return {"value": {"divergence_head": D[:SAMPLED_ROWS], "divergence_sum": _fsum(D)}}
    if op.kind == "probe":
        return {"exact": {k: doc[k] for k in ("failures", "solver_failures",
                                               "canonical_vertex_failure")}}
    if op.kind == "audit":
        exact = {"all_passed": doc["all_passed"], "convex_exposure": doc["convex_exposure"],
                 "probe_failures": doc["exposure_probe"]["failures"]}
        return {"exact": exact}
    if op.kind == "learn":
        losses = doc["per_step_loss"]
        return {
            "value": {"loss_head": losses[:5], "loss_tail": losses[-5:],
                      "loss_sum": math.fsum(losses), "final_weights": doc["final_weights"],
                      "bound": doc["bound"]},
            "solver": {"best_weights": doc["best_weights"],
                       "best_fixed_loss": doc["best_fixed_loss"],
                       "cumulative_regret": doc["cumulative_regret"]},
        }
    raise ValueError(op.kind)


def _fsum(rows) -> float:
    return math.fsum(x for row in rows for x in row)


def _flat(v) -> list[float]:
    return np.asarray(v, dtype=float).ravel().tolist()


def compare(recorded: dict, observed: dict) -> list[str]:
    """Differences between recorded and observed observables."""
    out = []
    if recorded.keys() != observed.keys():
        return [f"observables {sorted(observed)} != recorded {sorted(recorded)}"]
    for cls, values in recorded.items():
        for name, ref in values.items():
            got = observed[cls].get(name)
            if cls == "exact":
                if got != ref:
                    out.append(f"{name}: {got!r} != recorded {ref!r}")
                continue
            rtol = REF_RTOL if cls == "value" else REF_SOLVER_RTOL
            a, b = _flat(got), _flat(ref)
            scale = max([1.0] + [abs(x) for x in b])
            if len(a) != len(b) or any(abs(x - y) > rtol * scale for x, y in zip(a, b)):
                out.append(f"{name} differs from the recorded value beyond {rtol:g}")
    return out
