"""Two of the design's independence rules, read from the AST of `src/figurate`.

- Independent generation routes: none of the five route kernels that
  `figurate verify` cross-checks (`verify._ROUTES`) reaches another route in
  `core`. The one stream that routes share, `core._coefficients`, is not a
  route, so a route may read it.
- Independent classification routes: the margin route (`_margin_signs`) and
  the quotient route (`_quotient_signs`) in `logbehavior` do not reach each
  other, nor the helpers and imports that are the other's alone.

A function "reaches" every name and attribute that its body reads, and, in
turn, everything that the module-level functions and classes so named reach.
So a route that calls another through a public wrapper, or through
`core._name`, reaches it too. Each rule's failures start with its name.
"""

import ast
from pathlib import Path

from figurate.verify import _ROUTES

SOURCE = Path(__file__).resolve().parent.parent / "src" / "figurate"

GENERATION = "independent generation routes"
CLASSIFICATION = "independent classification routes"

# each classification route, and the helpers and imports that are its alone
CLASSIFICATION_ROUTES = {
    "_margin_signs": {"_wide_margin", "_top"},
    "_quotient_signs": {"_reduced_quotients", "gcd"},
}


def reaches(source: str) -> dict[str, set[str]]:
    """Each module-level function or class of `source`, and what its body reaches."""
    definitions = {
        node.name: node
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    reads = {name: _reads(node) for name, node in definitions.items()}
    closure = {}
    for name in definitions:
        seen, todo = set(), [name]
        while todo:
            for read in reads[todo.pop()] - seen:
                seen.add(read)
                if read in definitions:
                    todo.append(read)
        closure[name] = seen
    return closure


def _reads(definition: ast.FunctionDef | ast.ClassDef) -> set[str]:
    """The names and attributes that the body of a definition reads."""
    names = set()
    for statement in definition.body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def generation_failures(source: str, routes) -> list[str]:
    reached = reaches(source)
    return [
        f"{GENERATION}: {route} reaches {other}"
        for route in routes
        for other in sorted(reached[route] & (set(routes) - {route}))
    ]


def classification_failures(source: str, routes=CLASSIFICATION_ROUTES) -> list[str]:
    reached = reaches(source)
    return [
        f"{CLASSIFICATION}: {route} reaches {name}, of {other}"
        for route in routes
        for other, own in routes.items()
        if other != route
        for name in sorted((reached[route] | {route}) & (own | {other}))
    ]


ROUTE_NAMES = [name for _, name in _ROUTES]


def test_generation_routes_reach_no_other_route():
    assert len(ROUTE_NAMES) == 5
    assert generation_failures((SOURCE / "core.py").read_text(), ROUTE_NAMES) == []


def test_classification_routes_reach_nothing_of_each_other():
    assert classification_failures((SOURCE / "logbehavior.py").read_text()) == []


def test_each_classification_route_reaches_what_the_rule_calls_its_own():
    # so that a helper renamed in the code cannot leave the rule guarding a stale name
    reached = reaches((SOURCE / "logbehavior.py").read_text())
    for route, own in CLASSIFICATION_ROUTES.items():
        assert own <= reached[route], route


ROUTES_SOURCE = """
import itertools
from figurate import core

def _closed_form_terms(m):
    return itertools.count(m)

def _alt_form_terms(m):
    return itertools.count(m)

def closed_form(m, n):
    return next(itertools.islice(_closed_form_terms(m), n - 1, None))

def _coefficients(m):
    return itertools.count(m)
"""


def broken_routes(body: str) -> str:
    """ROUTES_SOURCE with `_alt_form_terms` returning `body`."""
    old = "def _alt_form_terms(m):\n    return itertools.count(m)"
    return ROUTES_SOURCE.replace(old, f"def _alt_form_terms(m):\n    return {body}")


def test_the_generation_rule_holds_on_its_fault_free_source():
    assert generation_failures(ROUTES_SOURCE, ["_closed_form_terms", "_alt_form_terms"]) == []


def test_a_route_may_read_the_shared_coefficients():
    source = broken_routes("_coefficients(m)")
    assert generation_failures(source, ["_closed_form_terms", "_alt_form_terms"]) == []


def test_a_route_calling_another_breaks_the_generation_rule():
    for body in ("_closed_form_terms(m)", "core._closed_form_terms(m)", "map(closed_form, [m], [1])"):
        failures = generation_failures(broken_routes(body), ["_closed_form_terms", "_alt_form_terms"])
        assert failures == [f"{GENERATION}: _alt_form_terms reaches _closed_form_terms"], body


CLASSIFY_SOURCE = """
from math import gcd

def _margin_signs(first, nums, dens):
    return _wide_margin(nums)

def _wide_margin(nums):
    return _top(nums[0])

def _top(x):
    return x

def _quotient_signs(first, nums, dens):
    return list(_reduced_quotients(nums, dens))

def _reduced_quotients(nums, dens):
    return gcd(nums[0], dens[0])
"""


def test_the_classification_rule_holds_on_its_fault_free_source():
    assert classification_failures(CLASSIFY_SOURCE) == []


def test_a_route_reaching_the_other_breaks_the_classification_rule():
    cases = [
        # the margin route calls the quotient route's helper
        ("return _top(nums[0])", "return _reduced_quotients(nums, dens)", "_margin_signs reaches _reduced_quotients"),
        # the margin route takes the quotient route's import
        ("return x", "return gcd(x, 1)", "_margin_signs reaches gcd"),
        # the quotient route calls the margin route
        ("return gcd(nums[0], dens[0])", "return _margin_signs(1, nums, dens)", "_quotient_signs reaches _margin_signs"),
    ]
    for old, new, failure in cases:
        source = CLASSIFY_SOURCE.replace(old, new)
        assert source != CLASSIFY_SOURCE
        failures = classification_failures(source)
        assert any(f.startswith(f"{CLASSIFICATION}: {failure},") for f in failures), failures
