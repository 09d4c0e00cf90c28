"""Output checks for the benchmark, with references that do not share the timed path.

Every check takes an invocation's exit code and standard output and returns
a list of problems; an empty list means the output is correct. The
references are computed by the benchmark before timing starts:

- graph-dc: proper-coloring counts from the graph's partitions into
  independent sets (this file), not deletion-contraction;
- arr-growth: the signed-subset (Whitney) expansion, not the Moebius sum
  over the intersection poset that `nbc` and `decone` report;
- verify-corpus: the report's own violation count, which the program
  derives from its independent oracles.
"""

from __future__ import annotations

import json


def parse_poly(text: str) -> tuple[int, ...]:
    """Ascending coefficients of a polynomial printed like 't^3 - 3t^2 + 2t'."""
    text = text.strip()
    if text == "0":
        return ()
    tokens = text.split()
    if tokens[0].startswith("-"):
        terms = [("-", tokens[0][1:])]
    else:
        terms = [("+", tokens[0])]
    if len(tokens) % 2 != 1:
        raise ValueError(f"cannot parse polynomial {text!r}")
    terms += list(zip(tokens[1::2], tokens[2::2]))
    coeffs: dict[int, int] = {}
    for op, body in terms:
        if op not in "+-" or not body:
            raise ValueError(f"cannot parse polynomial {text!r}")
        mag, var, power = body.partition("t")
        if var:
            c = int(mag) if mag else 1
            p = int(power[1:]) if power.startswith("^") else 1
            if power and not power.startswith("^"):
                raise ValueError(f"cannot parse term {body!r}")
        else:
            c, p = int(mag), 0
        if p in coeffs:
            raise ValueError(f"repeated power {p} in {text!r}")
        coeffs[p] = c if op == "+" else -c
    top = max(coeffs)
    return tuple(coeffs.get(p, 0) for p in range(top + 1))


def evaluate(coeffs: tuple[int, ...], t: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def coloring_counts(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Proper colorings with t = 0..n colors, from the graph's stable partitions.

    Backtracking puts each vertex, in order, into an earlier block with no
    neighbour of it or into a new block, so it meets every partition of the
    vertices into k independent sets once. With a_k such partitions,
    P(t) = sum_k a_k t(t-1)...(t-k+1). The n + 1 values fix a degree-n
    polynomial, so they check every coefficient.
    """
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    partitions = [0] * (n + 1)
    blocks: list[int] = []

    def place(v: int) -> None:
        if v == n:
            partitions[len(blocks)] += 1
            return
        bit = 1 << v
        for i, block in enumerate(blocks):
            if not adj[v] & block:
                blocks[i] = block | bit
                place(v + 1)
                blocks[i] = block
        blocks.append(bit)
        place(v + 1)
        blocks.pop()

    place(0)
    counts = []
    for t in range(n + 1):
        falling, total = 1, 0
        for k in range(n + 1):
            total += partitions[k] * falling
            falling *= t - k
        counts.append(total)
    return counts


def _load(stdout: str) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def _exit_ok(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}, expected 0"]


def check_verify(code: int, stdout: str, instances: int, checks: int) -> list[str]:
    problems = _exit_ok(code)
    report, bad = _load(stdout)
    if report is None:
        return problems + bad
    results = report.get("results", {})
    if results.get("violation_count") != 0 or report.get("violations"):
        problems.append(f"violation_count is {results.get('violation_count')}, expected 0")
    if results.get("instances") != instances:
        problems.append(f"{results.get('instances')} instances, expected {instances}")
    if results.get("checks") != checks:
        problems.append(f"{results.get('checks')} checks, expected {checks}")
    return problems


def check_poly_report(code: int, stdout: str, key: str, expected: tuple[int, ...]) -> list[str]:
    """The polynomial under `key` equals the reference coefficients."""
    problems = _exit_ok(code)
    report, bad = _load(stdout)
    if report is None:
        return problems + bad
    try:
        got = parse_poly(report["results"][key])
    except (KeyError, ValueError) as exc:
        return problems + [f"no readable polynomial under {key!r}: {exc}"]
    if got != tuple(expected):
        problems.append(f"{key} is {got}, reference is {tuple(expected)}")
    return problems


def check_decone(code: int, stdout: str, expected_char_poly: tuple[int, ...]) -> list[str]:
    problems = check_poly_report(code, stdout, "char_poly", expected_char_poly)
    report, _ = _load(stdout)
    if report is not None and report.get("results", {}).get("ok") is not True:
        problems.append("decone reports the identity as failed")
    return problems


def check_graph_bounds(code: int, stdout: str, counts: list[int]) -> list[str]:
    """The reported chromatic polynomial has degree n and P(t) = counts[t], t = 0..n."""
    problems = _exit_ok(code)
    report, bad = _load(stdout)
    if report is None:
        return problems + bad
    try:
        poly = parse_poly(report["results"]["polynomial"])
    except (KeyError, ValueError) as exc:
        return problems + [f"no readable polynomial: {exc}"]
    if len(poly) != len(counts):
        problems.append(f"degree {len(poly) - 1}, expected {len(counts) - 1}")
    for t, want in enumerate(counts):
        got = evaluate(poly, t)
        if got != want:
            problems.append(f"P({t}) = {got}, but {want} proper colorings")
    if report["results"].get("all_ok") is not True:
        problems.append("bounds report all_ok is not true")
    return problems
