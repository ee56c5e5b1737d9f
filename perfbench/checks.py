"""Output checks against the references, and their negative controls.

Each check takes one output (and its reference) and returns a list of
faults, empty when the output is right. The negative controls corrupt a
copy of a real output in a way that one check must notice, and report
every check that let its corruption through.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from types import SimpleNamespace

import reference as ref
import workloads

#: Relative tolerance of the program against the references. They agree
#: to ~2e-13 on every component, down to values of 1e-216.
REL_TOL = 1e-9
#: The sweep CSV prints 9 significant digits.
CSV_REL_TOL = 2e-8
#: Depth-1 Poisson rows with reference P_B in [1e-3, 1 - 1e-3] must lie
#: within this many 95 % half-widths (about 8 standard errors) of the
#: exact value; the model is exact there under the "true" convention.
SIM_CI_MULTIPLE = 4.0
BAND = (1e-3, 1.0 - 1e-3)
TOP_RATE = ref.LADDER[0][0]
#: The sweep verb's default link (Mbit/s).
LINK = 10000.0


def _close(x: float, want: float, rel: float = REL_TOL) -> bool:
    return x == want or abs(x - want) <= rel * abs(want)


def fits(n: int, link: float) -> bool:
    """Every unit at the top rate fits on the link."""
    return n * TOP_RATE <= link * (1.0 + 1e-12)


# --- references -------------------------------------------------------------

def ref_blocking(a: float, n_d: int, gap: int, n: int, link: float,
                 convention: str = "effective"):
    """Reference (total, components) of one cluster; both references are
    cached, so each distinct input is solved once."""
    return ref.cluster_blocking(n, n_d, link, *ref.unit_rates(a, n_d, gap), convention)


# --- analytic outputs (size_search, fat_link) -------------------------------

def ladder_errors(query, _record) -> list[str]:
    """The program's rate set and thresholds are the paper's ladder."""
    p = query.planning
    rates, caps = ref.ladder(query.n_d)
    forward, reverse = ref.thresholds(query.n_d, query.gap)
    got = (tuple(p.rate_set.rates), tuple(p.rate_set.capacities),
           tuple(p.thresholds.forward), tuple(p.thresholds.reverse))
    if got != (rates, caps, forward, reverse):
        return [f"{_where(query)}: ladder {got} != {(rates, caps, forward, reverse)}"]
    return []


def unit_rate_errors(query, record) -> list[str]:
    """Per-unit level rates against the dense GTH solve."""
    up, down = ref.unit_rates(query.a, query.n_d, query.gap)
    got = record["unit_rates"]
    if len(got[0]) != len(up) or not all(
            _close(x, w) for x, w in zip(got[0] + got[1], up + down)):
        return [f"{_where(query)}: unit rates {got} != reference {(up, down)}"]
    return []


def blocking_errors(query, record) -> list[str]:
    """Total and components against the (active units, load) program."""
    total, parts = ref_blocking(query.a, query.n_d, query.gap, query.n, query.link)
    got = record["per_rate"]
    if (len(got) != len(parts) or not _close(record["total"], total)
            or not all(_close(x, w) for x, w in zip(got, parts))):
        return [f"{_where(query)}: P_B {record['total']!r} {got} != reference {total!r} {parts}"]
    return []


def component_errors(query, record) -> list[str]:
    """Components lie in [0, 1], sum to the total, and follow the
    effective binomial convention."""
    parts, total = record["per_rate"], record["total"]
    nb = min(query.n, int(math.floor(query.link / ref.ladder(query.n_d)[0][0] + 1e-9)))
    errors = []
    if not all(0.0 <= x <= 1.0 for x in parts) or not 0.0 <= total <= 1.0:
        errors.append(f"{_where(query)}: components {parts} or total {total} outside [0, 1]")
    if abs(math.fsum(parts) - total) > 1e-12 * total:
        errors.append(f"{_where(query)}: components sum to {math.fsum(parts)!r}, total {total!r}")
    if record["convention"] != "effective" or record["binomial_n"] != nb:
        errors.append(f"{_where(query)}: convention {record['convention']} "
                      f"n={record['binomial_n']}, expected effective n={nb}")
    return errors


def zero_errors(query, record) -> list[str]:
    """P_B is exactly 0 when N units at the top rate fit, and only then."""
    if fits(query.n, query.link) != (record["total"] == 0.0):
        return [f"{_where(query)}: P_B {record['total']!r} with N*d_top "
                f"{'<=' if fits(query.n, query.link) else '>'} C"]
    return []


def single_rate_errors(query, record) -> list[str]:
    """At n_d = 1, the hand closed form of acceptance check 3."""
    if query.n_d != 1:
        return []
    hand = ref.single_rate_blocking(query.a, query.n, query.link, "effective")
    if not _close(record["total"], hand, 1e-10):
        return [f"{_where(query)}: P_B {record['total']!r} != hand form {hand!r}"]
    return []


ANALYTIC_CHECKS = {
    "ladder": ladder_errors,
    "unit_rates": unit_rate_errors,
    "blocking_vs_dp": blocking_errors,
    "components": component_errors,
    "zero_iff_fits": zero_errors,
    "single_rate_hand": single_rate_errors,
}


def answer_errors(question, output) -> list[str]:
    """The sizing answer is the largest scanned N whose reference P_B
    meets the target (0 when none does)."""
    want = max((q.n for q in question.queries
                if ref_blocking(q.a, q.n_d, q.gap, q.n, q.link)[0] <= question.target),
               default=0)
    if output["answer"] != want:
        return [f"question a={question.a} n_d={question.n_d} gap={question.gap} "
                f"target={question.target:.3e}: answer {output['answer']} != {want}"]
    return []


def _where(q) -> str:
    return f"a={q.a} n_d={q.n_d} gap={q.gap} N={q.n} link={q.link:g}"


def analytic_pairs(name: str, inputs, outputs):
    """(query, record) for every blocking evaluation of a round."""
    if name == "fat_link":
        return [(q, o) for q, o in zip(inputs, outputs) if o is not None]
    return [(q, r) for question, o in zip(inputs, outputs) if o is not None
            for q, r in zip(question.queries, o["reports"])]


def analytic_errors(name: str, inputs, outputs) -> list[str]:
    errors = []
    for query, record in analytic_pairs(name, inputs, outputs):
        for check in ANALYTIC_CHECKS.values():
            errors += check(query, record)
    if name == "size_search":
        for question, output in zip(inputs, outputs):
            if output is not None:
                errors += answer_errors(question, output)
    return errors


# --- sweep rows (sim_sweep) -------------------------------------------------

def _in_band(pt: dict) -> bool:
    """A depth-1 Poisson row whose exact P_B a 1e5-event run resolves."""
    return (pt["n_d"] == 1 and pt["arrival"] == "poisson" and BAND[0]
            <= ref_blocking(pt["a"], 1, pt["gap"], pt["n"], LINK, "true")[0] <= BAND[1])


def sweep_errors(rounds: list[list[dict]], exit_codes: list[int],
                 only: str | None = None) -> list[str]:
    """Faults in the sweep rows of every round (or only in one check)."""
    plan = workloads.SWEEP_PLAN
    points = workloads.sweep_points(plan)
    errors = []

    def want(check: str) -> bool:
        return only is None or only == check

    rows = rounds[0]
    if want("rows_complete"):
        errors += [f"sweep exited {c}" for c in exit_codes if c != 0]
        if len(rows) != len(points):
            errors.append(f"{len(rows)} rows for {len(points)} grid points")
        seeds = set()
        for row, pt in zip(rows, points):
            got = (int(row["n"]), float(row["a"]), int(row["n_d"]), int(row["gap"]),
                   row["arrival"], int(row["events"]))
            if got != (pt["n"], pt["a"], pt["n_d"], pt["gap"], pt["arrival"], plan["events"]):
                errors.append(f"row {got} where grid point {pt} belongs")
            seed = int(row["seed"])
            if not 0 <= seed < 2 ** 63 or seed in seeds:
                errors.append(f"row {pt}: seed {seed} out of range or repeated")
            seeds.add(seed)
            if row["agree"] not in ("true", "false"):
                errors.append(f"row {pt}: agree {row['agree']!r}")
    if want("repeatable"):
        strip = [[{k: v for k, v in r.items() if k != "wall_s"} for r in rnd] for rnd in rounds]
        errors += [f"round {i} rows differ from round 0 at the same seed"
                   for i, rnd in enumerate(strip[1:], start=1) if rnd != strip[0]]

    for row, pt in zip(rows, points):
        tag = f"row a={pt['a']} n_d={pt['n_d']} N={pt['n']} {pt['arrival']}"
        pb_a, pb_s, ci = (float(row[k]) for k in ("pb_analytic", "pb_sim", "pb_sim_ci"))
        parts = [float(x) for x in row["pb_components"].split(";")]
        b_rru, b_fha = int(row["blocked_rru"]), int(row["blocked_fha"])
        if want("analytic_column"):
            total, ref_parts = ref_blocking(pt["a"], pt["n_d"], pt["gap"], pt["n"], LINK)
            if (not _close(pb_a, total, CSV_REL_TOL) or len(parts) != len(ref_parts)
                    or not all(_close(x, w, CSV_REL_TOL) for x, w in zip(parts, ref_parts))):
                errors.append(f"{tag}: pb_analytic {pb_a!r} {parts} != reference "
                              f"{total!r} {ref_parts}")
        if want("sim_consistent"):
            if not (0.0 <= pb_s <= 1.0 and ci >= 0.0 and b_rru >= 0 and b_fha >= 0
                    and b_rru + b_fha <= plan["events"]):
                errors.append(f"{tag}: pb_sim {pb_s} ci {ci} blocked {b_rru}/{b_fha} out of range")
            if b_fha > 0 and pb_s == 0.0:
                errors.append(f"{tag}: {b_fha} link blocks but pb_sim 0")
        if want("zero_when_fits") and fits(pt["n"], LINK):
            if b_fha != 0 or pb_s != 0.0 or pb_a != 0.0:
                errors.append(f"{tag}: N*d_top <= C yet blocked_fha {b_fha}, "
                              f"pb_sim {pb_s}, pb_analytic {pb_a}")
        if want("depth1_sim_vs_exact") and _in_band(pt):
            exact = ref_blocking(pt["a"], 1, pt["gap"], pt["n"], LINK, "true")[0]
            if abs(pb_s - exact) > SIM_CI_MULTIPLE * ci:
                errors.append(f"{tag}: pb_sim {pb_s} +- {ci} vs exact {exact} "
                              f"(> {SIM_CI_MULTIPLE:g} half-widths)")
    return errors


def depth1_band_rows() -> int:
    """How many rows the depth-1 simulation check judges."""
    return sum(_in_band(pt) for pt in workloads.sweep_points(workloads.SWEEP_PLAN))


# --- negative controls ------------------------------------------------------

def analytic_controls(name: str, inputs, outputs) -> tuple[list[str], list[str]]:
    """(checks whose corruption was caught, checks that missed it)."""
    pairs = analytic_pairs(name, inputs, outputs)

    def scale_total(factor):
        return lambda q, r: (q, r | {"total": r["total"] * factor})

    def upside_down(q, r):
        # a planning object whose rate set is the ladder upside down
        p = q.planning
        rate_set = SimpleNamespace(rates=p.rate_set.rates[::-1],
                                   capacities=p.rate_set.capacities[::-1])
        planning = SimpleNamespace(thresholds=p.thresholds, rate_set=rate_set)
        return dataclasses.replace(q, planning=planning), r

    def bend_rate(q, r):
        up, down = r["unit_rates"]
        return q, r | {"unit_rates": ((up[0], up[1] * (1 + 1e-7)) + up[2:], down)}

    # check -> (which evaluation to corrupt, how)
    corruptions = {
        "ladder": (lambda q, r: q.n_d >= 2, upside_down),
        "unit_rates": (lambda q, r: q.n_d >= 2, bend_rate),
        "blocking_vs_dp": (lambda q, r: q.n_d >= 2 and len(set(r["per_rate"])) > 1,
                           lambda q, r: (q, r | {"per_rate": r["per_rate"][::-1]})),
        "components": (lambda q, r: r["total"] > 0.0, scale_total(1 + 1e-6)),
        "zero_iff_fits": (lambda q, r: r["total"] == 0.0,
                          lambda q, r: (q, r | {"total": 5e-324})),
        "single_rate_hand": (lambda q, r: q.n_d == 1 and r["total"] > 0.0,
                             scale_total(1 + 1e-8)),
    }
    caught, missed = [], []
    for check, (pick, corrupt) in corruptions.items():
        picked = next(((q, r) for q, r in pairs if pick(q, r)), None)
        if picked is None:
            continue
        (caught if ANALYTIC_CHECKS[check](*corrupt(*picked)) else missed).append(check)
    if name == "size_search":
        question, output = next((q, o) for q, o in zip(inputs, outputs) if o is not None)
        wrong = output | {"answer": output["answer"] + 1}
        (caught if answer_errors(question, wrong) else missed).append("answer")
    return caught, missed


def sweep_controls(rounds, exit_codes) -> tuple[list[str], list[str]]:
    points = workloads.sweep_points(workloads.SWEEP_PLAN)
    rows = rounds[0]

    def index(pred):
        return next((i for i, pt in enumerate(points) if pred(pt, rows[i])), None)

    def with_row(i, **changes):
        bad = copy.deepcopy(rows)
        bad[i].update({k: str(v) for k, v in changes.items()})
        return bad

    band = index(lambda pt, r: _in_band(pt))
    blocked = index(lambda pt, r: int(r["blocked_fha"]) > 0)
    fitting = index(lambda pt, r: fits(pt["n"], LINK))
    analytic = index(lambda pt, r: float(r["pb_analytic"]) > 0.0)
    corruptions = {
        "rows_complete": [rows[:-1]],
        "repeatable": [rows, with_row(0, pb_sim=float(rows[0]["pb_sim"]) + 1e-3)],
        "analytic_column": [with_row(analytic, pb_analytic=float(rows[analytic]["pb_analytic"])
                                     * (1 + 1e-6))],
        "sim_consistent": [with_row(blocked, pb_sim=0)],
        "zero_when_fits": [with_row(fitting, blocked_fha=3)],
        "depth1_sim_vs_exact": None if band is None else [with_row(
            band, pb_sim=float(rows[band]["pb_sim"]) + 5 * SIM_CI_MULTIPLE
            * float(rows[band]["pb_sim_ci"]) + 1e-3)],
    }
    caught, missed = [], []
    for check, bad_rounds in corruptions.items():
        if bad_rounds is None:
            continue
        errs = sweep_errors(bad_rounds, exit_codes, only=check)
        (caught if errs else missed).append(check)
    return caught, missed
