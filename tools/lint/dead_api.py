#!/usr/bin/env python3
"""pandora dead_api -- whole-repo inventory of uncalled public functions.

ROADMAP item 4 asks for one implementation per job and no second paths in
src/.  This pass finds the cheapest kind of second path: a function declared
in a src/ header whose name occurs nowhere in src/, tests/, bench/,
worldbench/ or examples/ except where it is declared or defined.  Such a
function has no caller, so it is either dead code or a test-only shim with
its test gone; delete it (with any counter only it reads) or give it a
caller.

How occurrences are counted (comments and string literals stripped first):

  * a candidate is any identifier followed by `(` at class or namespace
    scope in a src/ header -- outside every function body and preprocessor
    line -- that is not a keyword, an operator, a constructor/destructor or
    a macro;
  * an occurrence of the name followed by `(` outside every function body,
    in any scanned file, is a declaration or definition site (an inline
    body, an out-of-line `Class::Name(...)` definition, an override);
  * every other occurrence -- a call, an address-of, a use in a template
    argument or a lambda -- is a reference.

A candidate with no reference is reported.  The match is by name, so a
function shares its fate with every same-named function or variable; that
errs towards silence, never towards a false report.  The only allowlist is
the coroutine protocol: the compiler calls those hooks by name.

--test-only prints the next audit list instead and always exits 0: header
functions whose every reference sits outside src/ (in tests/, bench/,
worldbench/ or examples/).  Those are wrappers and shims the product no
longer uses; each is a deletion candidate once its outside callers move to
the function the product does use.

Usage:
  tools/lint/dead_api.py [--root DIR] [--test-only] [--self-test]
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from pandora_lint import FileContext, iter_source_files, line_of  # noqa: E402

SCAN_TREES = ("src", "tests", "bench", "worldbench", "examples")

# Called by the compiler, never by name in source.
COROUTINE_HOOKS = frozenset((
    "get_return_object", "get_return_object_on_allocation_failure",
    "initial_suspend", "final_suspend", "unhandled_exception",
    "return_value", "return_void", "yield_value", "await_transform",
    "await_ready", "await_suspend", "await_resume",
))

NOT_FUNCTIONS = frozenset((
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "alignas", "decltype", "noexcept", "static_assert", "requires", "typeid",
    "explicit", "operator", "co_await", "co_yield", "co_return", "throw",
    "void", "bool", "char", "int", "long", "short", "unsigned", "signed",
    "float", "double", "auto", "const", "volatile", "new", "delete",
    "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast",
    "__attribute__", "asm",
))

CALL_SHAPE_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
NAME_RE = re.compile(r"\b[A-Za-z_]\w*\b")
CLASS_NAME_RE = re.compile(r"\b(?:class|struct)\s+(?:\[\[[^\]]*\]\]\s*)*([A-Za-z_]\w*)")
MACRO_NAME_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")
# `Outer::Inner<T>::` chains stripped from the text before a name.
QUALIFIERS_RE = re.compile(r"(?:\b[A-Za-z_]\w*\s*(?:<[^<>;{}()]*>)?\s*::\s*)*$")
PREV_WORD_RE = re.compile(r"\b[A-Za-z_]\w*$")
# What may end the text before a declared name: a return type (`int`,
# `T>`, `T*`, `T&`), a `~`, or the end of the previous statement or label.
SIGNATURE_PRECEDERS = frozenset("_>*&;{}:")
NOT_RETURN_TYPES = frozenset(("return", "co_return", "co_await", "co_yield",
                              "new", "case", "throw", "else", "do"))


class Unit:
    """One scanned file: stripped code plus the spans that count as
    'inside a function body'."""

    def __init__(self, relpath, text):
        ctx = FileContext(relpath, text)
        self.relpath = relpath
        self.is_header = relpath.endswith(".h")
        # `full` keeps macro bodies: a call from a macro is a reference.
        # `code` blanks preprocessor lines for the structural reading, where
        # `#if defined(X)` before a namespace brace would pass for a
        # function body.  Both keep every offset.
        self.full = ctx.code
        lines = list(ctx.code_lines)
        cont = False
        for i, line in enumerate(lines):
            if cont or line.lstrip().startswith("#"):
                cont = line.rstrip().endswith("\\")
                lines[i] = " " * len(line)
            else:
                cont = False
        self.code = ctx.code = "\n".join(lines)
        self.bodies = ctx.function_bodies()

    def in_body(self, idx):
        return any(a < idx < b for a, b in self.bodies)


def _is_signature_site(unit, m):
    """The name at match `m` (identifier + `(`) sits where a declaration or
    definition can: outside function bodies, after a return type (past any
    `Class::` qualifiers), or first in its statement."""
    if unit.in_body(m.start()):
        return False
    before = QUALIFIERS_RE.sub("", unit.code[:m.start(1)]).rstrip()
    prev = PREV_WORD_RE.search(before)
    if prev and prev.group(0) in NOT_RETURN_TYPES:
        return False
    return before == "" or before[-1] in SIGNATURE_PRECEDERS or before[-1].isalnum()


def candidates(units):
    """{name: [(relpath, line), ...]} of functions declared in src/ headers."""
    class_names = set()
    for unit in units:
        class_names.update(CLASS_NAME_RE.findall(unit.code))
    found = {}
    for unit in units:
        if not (unit.is_header and unit.relpath.startswith("src/")):
            continue
        for m in CALL_SHAPE_RE.finditer(unit.code):
            name = m.group(1)
            if (name in NOT_FUNCTIONS or name in COROUTINE_HOOKS
                    or name in class_names or MACRO_NAME_RE.match(name)):
                continue
            if unit.code[:m.start(1)].rstrip().endswith(("~", "operator")):
                continue
            if not _is_signature_site(unit, m):
                continue
            found.setdefault(name, []).append((unit.relpath, line_of(unit.code, m.start(1))))
    return found


def reference_trees(units, names):
    """{name: set of top-level trees} holding an occurrence of each name in
    `names` that is not a declaration or definition site."""
    where = {}
    for unit in units:
        tree = unit.relpath.split("/", 1)[0]
        code = unit.code
        for m in NAME_RE.finditer(unit.full):
            name = m.group(0)
            if name not in names or tree in where.get(name, ()):
                continue
            site = CALL_SHAPE_RE.match(code, m.start())
            if site and site.group(1) == name and _is_signature_site(unit, site):
                continue
            where.setdefault(name, set()).add(tree)
    return where


def load_units(root, trees=SCAN_TREES):
    units = []
    for relpath, full in iter_source_files(root, trees):
        with open(full, encoding="utf-8", errors="replace") as fh:
            units.append(Unit(relpath, fh.read()))
    return units


def audit(units):
    """(dead, test_only): sorted [(relpath, line, name, trees)] of every
    header declaration of a name nothing references (trees empty), and of a
    name referenced only outside src/ (trees: the sorted trees that do)."""
    found = candidates(units)
    where = reference_trees(units, set(found))
    dead, test_only = [], []
    for name, sites in found.items():
        trees = tuple(sorted(where.get(name, ())))
        if "src" in trees:
            continue
        (test_only if trees else dead).extend((path, line, name, trees) for path, line in sites)
    return sorted(dead), sorted(test_only)


EXPECT_RE = re.compile(r"//\s*EXPECT-(DEAD|TEST-ONLY)\b")


def run_self_test(testdata):
    """The fixture tree under testdata/dead_api/ must report exactly the
    declarations marked `// EXPECT-DEAD` as dead and exactly those marked
    `// EXPECT-TEST-ONLY` as test-only (on the name's line)."""
    units = load_units(testdata)
    expected = {"DEAD": set(), "TEST-ONLY": set()}
    for relpath, full in iter_source_files(testdata, SCAN_TREES):
        with open(full, encoding="utf-8") as fh:
            for i, line in enumerate(fh.read().split("\n"), 1):
                m = EXPECT_RE.search(line)
                if m:
                    expected[m.group(1)].add((relpath, i))
    dead, test_only = audit(units)
    failures = []
    for kind, found in (("DEAD", dead), ("TEST-ONLY", test_only)):
        got = {(path, line): name for path, line, name, _ in found}
        label = kind.lower()
        for key in sorted(expected[kind] - set(got)):
            failures.append(f"{key[0]}:{key[1]}: expected a {label} function, got none")
        for key in sorted(set(got) - expected[kind]):
            failures.append(f"{key[0]}:{key[1]}: unexpected {label} function `{got[key]}`")
    return failures, len(units)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels up from this script)")
    parser.add_argument("--test-only", action="store_true",
                        help="report functions referenced only outside src/ (always exits 0)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the fixtures in testdata/dead_api/")
    args = parser.parse_args(argv)

    script_dir = os.path.dirname(os.path.abspath(__file__))
    root = args.root or os.path.dirname(os.path.dirname(script_dir))

    if args.self_test:
        failures, checked = run_self_test(os.path.join(script_dir, "testdata", "dead_api"))
        if failures:
            print("\n".join(failures))
            print(f"dead_api self-test: FAILED ({len(failures)} mismatches "
                  f"across {checked} fixtures)")
            return 1
        print(f"dead_api self-test: OK ({checked} fixtures)")
        return 0

    units = load_units(root)
    dead, test_only = audit(units)
    if args.test_only:
        for path, line, name, trees in test_only:
            callers = ", ".join(t + "/" for t in trees)
            print(f"{path}:{line}: [test-only] `{name}` is called only from {callers}")
        print(f"dead_api --test-only: {len(test_only)} header declaration(s) called only "
              f"outside src/ in {len(units)} files (report only)")
        return 0
    for path, line, name, _ in dead:
        print(f"{path}:{line}: [dead-api] `{name}` is declared here but nothing "
              "calls it; delete it or give it a caller")
    if dead:
        print(f"dead_api: {len(dead)} uncalled function(s) in {len(units)} files")
        return 1
    print(f"dead_api: OK ({len(units)} files, every header-declared function has a caller)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
