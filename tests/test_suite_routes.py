"""The two routes of every suite comparison, run apart, and what they share.

An oracle that shares code with the closed form it checks removes the check
(ROADMAP, aim 3).  Each suite battery returns one record per report, whose
value and reference routes are zero-argument callables.  This module runs
each route alone, on a fresh build of its battery, under a profile hook that
keeps the wehrl_lab functions the route enters.  For every report with a
comparison not sourced "exact" it pins the functions both routes enter,
less the input gates of _GATES: any new sharing fails here.
"""

import inspect
import sys
from types import CodeType

import pytest

from wehrl_lab import suite
from wehrl_lab.reports import SuiteConfig

# Input gates both routes of a comparison may pass, each with its reason.
_GATES = {
    "exactnum.check_weight": "reads a number exactly and refuses the rest",
    "exactnum.check_counts": "refuses a count below its least value",
    "exactnum.in_float_range.<locals>.checked":
        "renames an OverflowError of the function it wraps, computes nothing",
    "compact._vector": "reads the SU(2) vector and checks it finite",
}

# What both routes of each such report enter, less _GATES.
_SHARED = {
    "selberg.monte_carlo_3sigma": set(),
    "selberg.gauss_jacobi": set(),
    # laguerre_constant_C and d_lambda share one Gamma-ratio evaluator and
    # the domain's derived dimensions
    "selberg.verify_degree_integral": {
        "degrees._gamma_ratio_ints", "domains.DomainParams.N",
        "domains.DomainParams.n1", "domains.DomainParams.p",
        "exactnum.PiScaledRational.__init__",
        "exactnum.PiScaledRational.__post_init__"},
    "disc.norm_quadrature": set(),
    "disc.wehrl_inequality": set(),
    "disc.matrix_coeff_lp": set(),
    "disc.maximize_wehrl": set(),
    "compact.haar_moments": set(),
    "compact.exact_case": set(),
    # the Haar rows' (-m)_i/i! and the mass's weights, from one pair
    "compact.wehrl_bound_random": {
        "disc._factorials", "disc._rising_pair", "exactnum.rising_ints"},
    "compact.equality_on_translates": set(),
}


def _qualnames() -> dict:
    """The module-qualified name of every wehrl_lab code object, nested
    ones included, the same on every Python version."""
    names = {}

    def walk(code, name):
        names.setdefault(code, name)
        for const in code.co_consts:
            if isinstance(const, CodeType):
                walk(const, f"{name}.<locals>.{const.co_name}")

    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("wehrl_lab.") or module is None:
            continue
        for obj in vars(module).values():
            members = ([obj] if not isinstance(obj, type)
                       else list(vars(obj).values()))
            for m in members:  # property, cached_property, staticmethod
                m = next((getattr(m, k) for k in ("fget", "func", "__func__")
                          if hasattr(m, k)), m)
                m = inspect.unwrap(m) if callable(m) else m
                if getattr(m, "__module__", None) == module_name and hasattr(
                        m, "__code__"):
                    walk(m.__code__, f"{module_name[len('wehrl_lab.'):]}."
                                     f"{m.__qualname__}")
    return names


def _trace(route, names: dict):
    """route() under a profile hook: its result and the named wehrl_lab
    functions it enters; lambdas and comprehensions count as part of the
    function that holds them."""
    entered = set()

    def hook(frame, event, arg):
        if (event == "call" and frame.f_globals.get(
                "__name__", "").startswith("wehrl_lab.")
                and not frame.f_code.co_name.startswith("<")):
            entered.add(names.get(frame.f_code, frame.f_code.co_name))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = route()
    finally:
        sys.setprofile(previous)
    return result, entered


@pytest.fixture(scope="module")
def scans():
    """(command, labels not sourced exact, functions both routes enter) for
    every record of every battery, each route run on its own fresh build."""
    config, names, out = SuiteConfig(), _qualnames(), []
    for battery in suite._SUITES.values():
        for i, record in enumerate(battery(config)):
            value, in_value = _trace(battery(config)[i].value, names)
            reference, in_reference = _trace(battery(config)[i].reference,
                                             names)
            comparisons, _ = record.judge(value, reference)
            out.append((record.command,
                        [c[0] for c in comparisons if c[4] != "exact"],
                        in_value & in_reference))
    return out


def test_the_scan_covers_every_comparison_not_sourced_exact(scans):
    scanned = [(command, label) for command, labels, _ in scans
               for label in labels]
    assert len(scanned) == 17 and len(set(scanned)) == 15  # 3 vdi products
    assert {command for command, _ in scanned} == set(_SHARED)


def test_the_routes_share_only_the_pinned_functions(scans):
    seen_gates = set()
    for command, labels, shared in scans:
        if labels:
            assert shared - set(_GATES) == _SHARED[command], command
            seen_gates |= shared & set(_GATES)
    assert seen_gates == set(_GATES)  # no gate is allowed that none passes
