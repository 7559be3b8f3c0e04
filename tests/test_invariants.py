"""Four of the design's rules, read from the AST of `src/figurate`.

- Independent generation routes: none of the five route kernels that
  `figurate verify` cross-checks (`verify._ROUTES`) reaches another route in
  `core`. The one stream that routes share, `core._coefficients`, is not a
  route, so a route may read it.
- Independent classification routes: the margin route (`_margin_signs`) and
  the quotient route (`_quotient_signs`) in `logbehavior` do not reach each
  other, nor the helpers and imports that are the other's alone.
- No floats: no float constant, no true division (`/`), no `math` function
  that returns a float, and the name `float` only where a float term is
  rejected (`logbehavior._exact_pair`).
- Fractions only at the API boundary: `Fraction` is called, directly or
  through `map`, only in public functions and properties, and in
  `core._second_order_terms`, whose step that does not divide is a fault
  value that the cross-formula check reports.

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
NO_FLOATS = "no floats"
FRACTION_BOUNDARY = "Fractions only at the API boundary"

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


# math functions whose value is an int for int arguments
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}
# (module, function) where the name `float` may be read: the rejection of a float term
FLOAT_READERS = {("logbehavior", "_exact_pair")}
# (module, function) that may build a Fraction though private: the second-order route
FRACTION_BUILDERS = {("core", "_second_order_terms")}


def scoped_nodes(source: str):
    """Each node of `source`, with the dotted name of the function or class around it ("" at
    module level)."""
    todo = [(ast.parse(source), "")]
    while todo:
        node, scope = todo.pop()
        yield node, scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        todo.extend((child, scope) for child in ast.iter_child_nodes(node))


def float_failures(source: str, module: str) -> list[str]:
    failures = []
    for node, scope in scoped_nodes(source):
        where = f"{module}.{scope}" if scope else module
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            failures.append(f"{NO_FLOATS}: {where} has the constant {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            failures.append(f"{NO_FLOATS}: {where} divides with / at line {node.lineno}")
        elif isinstance(node, ast.Name) and node.id == "float" and (module, scope) not in FLOAT_READERS:
            failures.append(f"{NO_FLOATS}: {where} reads float at line {node.lineno}")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        ):
            failures.append(f"{NO_FLOATS}: {where} reads math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            failures.extend(
                f"{NO_FLOATS}: {where} imports math.{alias.name}"
                for alias in node.names
                if alias.name not in INTEGER_MATH
            )
    return failures


def fraction_builders(source: str) -> set[str]:
    """The dotted names of the functions that call `Fraction`, directly or through `map`."""
    def is_fraction(node):
        return isinstance(node, ast.Name) and node.id == "Fraction"

    return {
        scope
        for node, scope in scoped_nodes(source)
        if isinstance(node, ast.Call)
        and (
            is_fraction(node.func)
            or (isinstance(node.func, ast.Name) and node.func.id == "map" and is_fraction(node.args[0]))
        )
    }


def fraction_failures(source: str, module: str) -> list[str]:
    def public(scope):
        return scope and all(
            not name.startswith("_") or name.endswith("__") for name in scope.split(".")
        )

    return [
        f"{FRACTION_BOUNDARY}: {module}.{scope or '<module>'} builds a Fraction"
        for scope in sorted(fraction_builders(source))
        if not public(scope) and (module, scope) not in FRACTION_BUILDERS
    ]


MODULES = {path.stem: path.read_text() for path in sorted(SOURCE.glob("*.py"))}


def test_no_module_uses_floats():
    assert [f for module, source in MODULES.items() for f in float_failures(source, module)] == []


def test_fractions_are_built_only_at_the_api_boundary():
    failures = [f for module, source in MODULES.items() for f in fraction_failures(source, module)]
    assert failures == []


def test_the_fraction_builders_are_todays():
    # so that a checker that finds no call at all cannot pass the rule
    builders = {(module, scope) for module, source in MODULES.items() for scope in fraction_builders(source)}
    assert builders == {
        ("core", "coefficient_r"),
        ("core", "coefficient_t"),
        ("core", "quotient_direct"),
        ("core", "quotient_recurrence"),
        ("core", "_second_order_terms"),
        ("logbehavior", "PositiveSequence.terms"),
    }


def test_the_float_exemption_names_a_reader_of_float():
    # so that a function renamed in the code cannot leave its exemption guarding a stale name
    for module, scope in FLOAT_READERS:
        failures = float_failures(MODULES[module], "elsewhere")
        assert any(f.startswith(f"{NO_FLOATS}: elsewhere.{scope} reads float") for f in failures)


FLOAT_SOURCE = """
import math
from math import gcd

def _halve(n):
    return n >> 1

def _root(n):
    return math.isqrt(n) + gcd(n, 6)

def _exact_pair(position, term):
    if isinstance(term, float):
        raise TypeError(position)
    return term, 1
"""


def test_the_float_rule_holds_on_its_fault_free_source():
    assert float_failures(FLOAT_SOURCE, "logbehavior") == []


def test_a_float_breaks_the_float_rule():
    cases = [
        ("return n >> 1", "return n / 2", "logbehavior._halve divides with /"),
        ("return n >> 1", "n /= 2\n    return n", "logbehavior._halve divides with /"),
        ("return n >> 1", "return n * 0.5", "logbehavior._halve has the constant 0.5"),
        ("math.isqrt(n)", "math.sqrt(n)", "logbehavior._root reads math.sqrt"),
        ("from math import gcd", "from math import gcd, log", "logbehavior imports math.log"),
        ("return n >> 1", "return float(n)", "logbehavior._halve reads float"),
    ]
    for old, new, failure in cases:
        source = FLOAT_SOURCE.replace(old, new)
        assert source != FLOAT_SOURCE
        failures = float_failures(source, "logbehavior")
        assert any(f.startswith(f"{NO_FLOATS}: {failure}") for f in failures), (new, failures)
    # `float` is allowed in _exact_pair of logbehavior only
    assert float_failures(FLOAT_SOURCE, "core") == [f"{NO_FLOATS}: core._exact_pair reads float at line 12"]


FRACTION_SOURCE = """
from fractions import Fraction

def quotient(p, q):
    return Fraction(p, q)

def _margin_signs(first, nums, dens):
    return [a * d for a, d in zip(nums, dens)]

class Sequence:
    @property
    def terms(self):
        return tuple(map(Fraction, self._nums, self._dens))

    def _exact(self, term):
        return isinstance(term, Fraction)
"""


def test_the_fraction_rule_holds_on_its_fault_free_source():
    assert fraction_failures(FRACTION_SOURCE, "logbehavior") == []
    assert fraction_builders(FRACTION_SOURCE) == {"quotient", "Sequence.terms"}


def test_a_private_fraction_breaks_the_fraction_rule():
    cases = [
        ("[a * d for a, d in zip(nums, dens)]", "[Fraction(a, d) for a, d in zip(nums, dens)]", "_margin_signs"),
        ("[a * d for a, d in zip(nums, dens)]", "list(map(Fraction, nums, dens))", "_margin_signs"),
        ("return isinstance(term, Fraction)", "return Fraction(term)", "Sequence._exact"),
        ("def quotient(p, q):", "def _quotient(p, q):", "_quotient"),
    ]
    for old, new, scope in cases:
        source = FRACTION_SOURCE.replace(old, new)
        assert source != FRACTION_SOURCE
        failures = fraction_failures(source, "logbehavior")
        assert failures == [f"{FRACTION_BOUNDARY}: logbehavior.{scope} builds a Fraction"], (new, failures)
    # the second-order route is exempt in core alone
    source = FRACTION_SOURCE.replace("def quotient(p, q):", "def _second_order_terms(p, q):")
    assert fraction_failures(source, "core") == []
    assert fraction_failures(source, "logbehavior") == [
        f"{FRACTION_BOUNDARY}: logbehavior._second_order_terms builds a Fraction"
    ]
