"""reprolint: AST lint pass enforcing this repo's invariants.

    python -m tools.reprolint src/

Rules (each exists because breaking it silently invalidates either the
numerics or the performance model):

R001 no-hot-loop-alloc
    No NumPy array allocation inside a loop in a kernel function (named
    ``kernel`` or ``*_kernel``).  Kernel bodies model tight compute loops;
    a per-iteration allocation would never survive on A64FX and silently
    skews any wall-time measurement taken through them.

R002 ghost-write-via-module
    ``ghost_slices`` may only be called from ``repro/octree/ghost.py``.
    Ghost bands carry inter-sub-grid dependencies; writing them anywhere
    else bypasses the exchange protocol the race analysis reasons about.

R004 no-bare-numpy-random
    No ``numpy.random.*`` legacy global-state API; use
    ``numpy.random.default_rng(seed)``.  Global-state draws make runs
    depend on import order, which breaks the determinism tests.

R005 no-uncoalesced-send
    No per-item ``network.send`` / ``transport.send`` inside a loop.
    A send per loop iteration is the O(leaf faces) message pattern the
    coalescing layer (``repro.comms``, see docs/comms.md) exists to
    replace with one bundle per neighbor locality; new code should go
    through a bundle plan.  Deliberate per-item paths (one send per
    neighbor-locality bundle) carry a ``# reprolint: sanctioned-bundle``
    comment on the send line or on the loop header.

R006 process-spawn-via-amt
    No direct ``multiprocessing.Process`` / ``multiprocessing.Pool`` use
    (including via ``get_context(...)``) outside ``repro/amt/parallel.py``.
    All process spawning goes through the AMT API
    (``repro.amt.parallel.ParallelEngine``), which owns worker lifecycle,
    typed crash/timeout semantics, and the shm cleanup guard; a raw
    Process escapes all three.

R007 shm-write-discipline
    In modules that map ``repro.amt.shm`` arenas, writes into an
    shm-backed view (``view[...] = ...``, augmented assigns,
    ``np.copyto(view, ...)``) may appear only inside barrier-delimited
    worker phase classes (classes defining a ``dispatch`` method, driven
    one command per BSP round) — anything else is a cross-process write
    with no barrier ordering, invisible to both the static plan verifier
    and the dynamic shm race detector.  Deliberate exceptions carry
    ``# reprolint: sanctioned-shm`` on the write line.
    (``repro/amt/shm.py`` and ``repro/analysis/shmrace.py`` are exempt:
    they implement the arena and its instrumentation.)

R008 flat-wire-payloads
    Arguments of control-plane sends (``conn``/``engine``/``locality``
    ``.send``/``.broadcast``/``.round``) must be flat buffers and
    primitives: no ``mesh``/``subgrid``/``nodes`` object graphs, no raw
    ``.data`` views, no lambdas.  Pickling a live shm view silently
    copies the pages and rebinds them as private memory on the far side —
    the exact aliasing bug the shm data plane exists to avoid.
    Deliberate exceptions carry ``# reprolint: sanctioned-wire``.

R009 no-optional-array-modules
    ``numba``, ``cupy`` and ``jax`` are not imported anywhere.  The
    kernels are NumPy only; a direct import scatters an optional
    dependency through kernel and physics modules, where a missing
    install becomes a hard ImportError at module load.

R010 no-cold-plan-in-step-loop
    No cold plan construction (``build_plan``, ``build_hydro_plan``,
    ``build_bundle_plan``) inside a loop.  Plans are
    keyed on the mesh topology fingerprint and maintained incrementally
    (delta rebuild) or served from the content-addressed plan cache
    (``repro.core.plancache``); a cold build per loop iteration silently
    reinstates the regrid cold-path this machinery exists to kill — the
    exact ~5×-per-regrid overhead BENCH_fmm.json measures.  The sanctioned
    cache-miss hooks (the shared lifecycle's ``cold`` hooks, one per plan
    kind — ``repro.util.lifecycle``) and deliberate
    per-scenario sweeps carry ``# reprolint: sanctioned-cold-build`` on
    the call line or the loop header.

R011 no-barrier-round-in-step-loop
    No barrier round (``engine.round(...)`` without ``on_note``) inside a
    loop.  A barrier per loop iteration makes every rank wait for the
    slowest at every op; a round that routes mid-round notes
    (``engine.round(cmd, on_note=...)`` over a group of ops, see
    docs/parallel.md) orders only what has to be ordered.
    Deliberate barrier loops — the BSP ablation baseline, collective
    phases with genuine all-rank dependencies (reflux), test harnesses —
    carry ``# reprolint: sanctioned-barrier`` on the call line or the
    loop header.

R012 no-scipy-in-src
    Nothing under ``src/repro/`` imports scipy, at any depth (module level,
    class body or function body): the package runs on numpy alone, and
    scipy is a test-only dependency of the oracles.  One module-level
    ``from scipy.optimize import brentq`` once made ``import
    repro.core.driver`` load 355 scipy modules (0.8 s, +47 MB RSS), and
    the function-level imports that replaced it still cost every star and
    binary build 337 modules, a second OpenBLAS and +53 MB of RSS.

R013 src-definition-needs-a-caller
    Every top-level function and class under ``src/repro/``, and every
    method and property of its classes (dunders exempt), is referenced
    from ``src/``, ``benchmarks/``, ``examples/`` or ``tools/`` of the same
    checkout, whatever paths are linted.  A top-level definition is
    referenced by an attribute or by a bare name bound to it; a method
    also by any bare name or identifier-shaped string constant (op names
    dispatched through ``getattr``).  The definition's own body, an
    ``__init__`` re-export, an ``__all__`` listing and
    ``tools/gen_api_summary.py`` do not count, and ``tests/`` never does:
    code that only tests call is either an oracle, and lives in
    ``tests/oracles/``, or it is dead.  A definition kept on purpose
    carries ``# reprolint: sanctioned-<reason>`` on its def line.

Exit status: 0 clean, 1 findings reported, 2 usage error, 3 unreadable
or unparseable input (R000).  ``--json`` emits the findings as a machine
readable object for CI annotation.
"""

from __future__ import annotations

import ast
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

_ALLOC_FNS = {
    "zeros", "ones", "empty", "full", "array", "arange",
    "zeros_like", "ones_like", "empty_like", "full_like", "copy",
}
#: repro/comms/bundle.py is the coalescing layer itself: it traces the
#: reference fill functions over index proxies (never live field data), so
#: its ghost_slices reads are how the exchange protocol gets built.
_GHOST_EXEMPT = (
    "repro/octree/ghost.py",
    "repro/comms/bundle.py",
    # The static plan verifier independently rebuilds the expected
    # ghost-band target set from the geometry to check the exchange.
    "repro/analysis/planverify.py",
)
_RANDOM_ALLOWED = {"default_rng", "Generator", "SeedSequence"}
_SANCTION_TAG = "# reprolint: sanctioned-bundle"
_SEND_OWNERS = ("network", "transport")
#: repro/amt/parallel.py IS the AMT process-spawning API R006 funnels
#: everything through.
_MP_EXEMPT = ("repro/amt/parallel.py",)
_MP_SPAWN_NAMES = {"Process", "Pool"}
_SHM_SANCTION_TAG = "# reprolint: sanctioned-shm"
_WIRE_SANCTION_TAG = "# reprolint: sanctioned-wire"
#: The arena implementation and its event-log instrumentation are the
#: infrastructure R007 funnels everything through.
_SHM_EXEMPT = ("repro/amt/shm.py", "repro/analysis/shmrace.py")
#: Wire-owner receiver names: pipes and engine/locality control planes.
_WIRE_OWNERS = {"conn", "engine", "loc", "pipe", "locality"}
_WIRE_METHODS = {"send", "broadcast", "round"}
#: Attribute/name markers of non-flat payloads (object graphs, views).
_RICH_ATTRS = {"mesh", "subgrid", "nodes", "data"}
#: Optional array modules no module may import (R009).
_BACKEND_MODULES = {"numba", "cupy", "jax"}
#: Cold plan constructors — every call pays the full traversal/trace cost
#: the fingerprint/delta/cache machinery exists to amortize (R010).
_COLD_BUILD_FNS = {"build_plan", "build_hydro_plan", "build_bundle_plan"}
_COLD_SANCTION_TAG = "# reprolint: sanctioned-cold-build"
#: Engine-owner names whose ``.round(...)`` without ``on_note`` is a
#: barrier (R011); matching on the receiver name keeps ``np.round`` and
#: friends out.
_BARRIER_OWNERS = {"engine"}
_BARRIER_SANCTION_TAG = "# reprolint: sanctioned-barrier"
#: Where R013 reads callers from, relative to the checkout root.
_CALLER_DIRS = ("src", "benchmarks", "examples", "tools")
#: The API table generator imports everything; it is not a caller.
_CALLER_EXEMPT = ("tools/gen_api_summary.py",)
_ANY_SANCTION_TAG = "# reprolint: sanctioned-"


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _numpy_aliases(tree: ast.Module) -> Set[str]:
    """Names the module binds to the numpy package (``np``, ``numpy``...)."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    aliases.add(alias.asname or "numpy")
    return aliases


def _is_kernel_fn(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
        node.name == "kernel" or node.name.endswith("_kernel")
    )


def _is_numpy_attr_call(call: ast.Call, aliases: Set[str], names: Set[str]) -> bool:
    fn = call.func
    return (
        isinstance(fn, ast.Attribute)
        and fn.attr in names
        and isinstance(fn.value, ast.Name)
        and fn.value.id in aliases
    )


def _path_matches(path: str, suffixes: Sequence[str]) -> bool:
    normalized = path.replace("\\", "/")
    return any(normalized.endswith(suffix) for suffix in suffixes)


def _check_hot_loop_alloc(tree: ast.Module, path: str, aliases: Set[str]) -> List[Finding]:
    findings = []
    for node in ast.walk(tree):
        if not _is_kernel_fn(node):
            continue
        for loop in ast.walk(node):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for call in ast.walk(loop):
                if isinstance(call, ast.Call) and _is_numpy_attr_call(
                    call, aliases, _ALLOC_FNS
                ):
                    findings.append(Finding(
                        path, call.lineno, "R001",
                        f"allocation ({ast.unparse(call.func)}) inside a loop in "
                        f"kernel function {node.name!r}; hoist it out of the hot loop",
                    ))
    return findings


def _check_ghost_writes(tree: ast.Module, path: str) -> List[Finding]:
    if _path_matches(path, _GHOST_EXEMPT):
        return []
    findings = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "ghost_slices"
        ):
            findings.append(Finding(
                path, node.lineno, "R002",
                "ghost bands may only be touched through repro.octree.ghost; "
                "direct ghost_slices access bypasses the exchange protocol",
            ))
    return findings


def _check_bare_random(tree: ast.Module, path: str, aliases: Set[str]) -> List[Finding]:
    findings = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "random"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in aliases
            and node.attr not in _RANDOM_ALLOWED
        ):
            findings.append(Finding(
                path, node.lineno, "R004",
                f"legacy numpy.random.{node.attr} uses global state; "
                "seed an explicit numpy.random.default_rng instead",
            ))
        elif (
            isinstance(node, ast.ImportFrom)
            and node.module == "numpy.random"
            and any(a.name not in _RANDOM_ALLOWED for a in node.names)
        ):
            findings.append(Finding(
                path, node.lineno, "R004",
                "import only default_rng/Generator/SeedSequence from "
                "numpy.random; the legacy API uses global state",
            ))
    return findings


def _send_owner(call: ast.Call) -> str:
    """The receiver name of a ``<owner>.send(...)`` call if it looks like a
    message-layer object, else ``""``.

    Matches ``network.send``, ``self.transport.send`` and the like by the
    final attribute/name component containing "network" or "transport" —
    the two object families that put messages on the virtual wire.
    """
    fn = call.func
    if not (isinstance(fn, ast.Attribute) and fn.attr == "send"):
        return ""
    base = fn.value
    if isinstance(base, ast.Name):
        name = base.id
    elif isinstance(base, ast.Attribute):
        name = base.attr
    else:
        return ""
    lowered = name.lower()
    return name if any(owner in lowered for owner in _SEND_OWNERS) else ""


def _check_uncoalesced_send(
    tree: ast.Module, path: str, sanctioned: Set[int]
) -> List[Finding]:
    findings = []
    seen: Set[tuple] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        if node.lineno in sanctioned:
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            owner = _send_owner(call)
            if not owner or call.lineno in sanctioned:
                continue
            key = (call.lineno, call.col_offset)
            if key in seen:  # nested loops walk the same call twice
                continue
            seen.add(key)
            findings.append(Finding(
                path, call.lineno, "R005",
                f"per-item {owner}.send inside a loop sends O(items) "
                "messages; coalesce through a repro.comms bundle plan, or "
                f"mark a deliberate path with {_SANCTION_TAG!r}",
            ))
    return findings


def _multiprocessing_aliases(tree: ast.Module) -> Set[str]:
    """Names bound to the multiprocessing package (``mp``, ...)."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "multiprocessing":
                    aliases.add((alias.asname or alias.name).split(".")[0])
    return aliases


def _is_get_context_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    return (isinstance(fn, ast.Name) and fn.id == "get_context") or (
        isinstance(fn, ast.Attribute) and fn.attr == "get_context"
    )


def _context_names(tree: ast.Module) -> Set[str]:
    """Variables assigned from a ``get_context(...)`` call — spawn contexts
    whose ``.Process``/``.Pool`` attributes R006 also covers."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_get_context_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, ast.Attribute):
                    names.add(target.attr)
    return names


def _check_process_spawn(tree: ast.Module, path: str) -> List[Finding]:
    if _path_matches(path, _MP_EXEMPT):
        return []
    findings = []
    mp_aliases = _multiprocessing_aliases(tree)
    ctx_names = _context_names(tree)
    message = (
        "spawn worker processes through repro.amt.parallel.ParallelEngine, "
        "not raw multiprocessing {name} (the AMT API owns worker lifecycle, "
        "typed crash semantics, and shm cleanup)"
    )
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] == "multiprocessing":
                for alias in node.names:
                    if alias.name in _MP_SPAWN_NAMES:
                        findings.append(Finding(
                            path, node.lineno, "R006",
                            message.format(name=alias.name),
                        ))
        elif isinstance(node, ast.Attribute) and node.attr in _MP_SPAWN_NAMES:
            base = node.value
            direct = isinstance(base, ast.Name) and base.id in (
                mp_aliases | ctx_names
            )
            dotted = (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id in mp_aliases
            )
            via_context = _is_get_context_call(base)
            if direct or dotted or via_context:
                findings.append(Finding(
                    path, node.lineno, "R006", message.format(name=node.attr),
                ))
    return findings


def _sanctioned_lines(source: str, tag: str = _SANCTION_TAG) -> Set[int]:
    return {
        i
        for i, line in enumerate(source.splitlines(), start=1)
        if tag in line
    }


def _imports_module(tree: ast.Module, dotted: str) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.startswith(dotted) for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").startswith(dotted):
                return True
    return False


def _shm_view_names(tree: ast.Module) -> Set[str]:
    """Targets ever bound from an ``<arena>.ndarray(...)`` call — the
    names R007 treats as shm-backed views (attribute or local)."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        # x = arena.ndarray(...) and x = arena.ndarray(...).reshape(...)
        calls = [n for n in ast.walk(value)
                 if isinstance(n, ast.Call)
                 and isinstance(n.func, ast.Attribute)
                 and n.func.attr == "ndarray"]
        if not calls:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Attribute):
                names.add(target.attr)
    return names


def _base_name(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _check_shm_write_discipline(
    tree: ast.Module, path: str, sanctioned: Set[int]
) -> List[Finding]:
    if _path_matches(path, _SHM_EXEMPT) or not _imports_module(
        tree, "repro.amt.shm"
    ):
        return []
    views = _shm_view_names(tree)
    if not views:
        return []

    # Functions allowed to write shm: methods of barrier-driven phase
    # classes (a class defining ``dispatch`` executes one command per BSP
    # round).
    allowed: Set[ast.AST] = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any(
            isinstance(c, (ast.FunctionDef, ast.AsyncFunctionDef))
            and c.name == "dispatch"
            for c in cls.body
        ):
            allowed.update(
                n for n in ast.walk(cls)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            )

    def enclosing_ok(stack: List[ast.AST]) -> bool:
        return any(f in allowed for f in stack)

    findings: List[Finding] = []

    def is_view_store(target: ast.AST) -> bool:
        return isinstance(target, ast.Subscript) and (
            _base_name(target.value) in views
        )

    def visit(node: ast.AST, stack: List[ast.AST]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack = stack + [node]
        for child in ast.iter_child_nodes(node):
            visit(child, stack)
        if enclosing_ok(stack) or getattr(node, "lineno", 0) in sanctioned:
            return
        hit = None
        if isinstance(node, ast.Assign) and any(
            is_view_store(t) for t in node.targets
        ):
            hit = _base_name(node.targets[0].value) or "view"
        elif isinstance(node, ast.AugAssign) and is_view_store(node.target):
            hit = _base_name(node.target.value) or "view"
        elif (
            isinstance(node, ast.Call)
            and _is_numpy_attr_call(node, _numpy_aliases(tree), {"copyto"})
            and node.args
            and _base_name(node.args[0]) in views
        ):
            hit = _base_name(node.args[0])
        if hit:
            findings.append(Finding(
                path, node.lineno, "R007",
                f"write to shm view {hit!r} outside a barrier-delimited "
                "dispatch phase; the race checkers cannot order it — move "
                f"it into a phase or mark it {_SHM_SANCTION_TAG!r}",
            ))

    visit(tree, [])
    return findings


def _contains_rich_payload(node: ast.AST) -> str:
    """A marker string when the expression tree smuggles a non-flat
    object across the wire, else ``""``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in _RICH_ATTRS:
            return f".{sub.attr}"
        if isinstance(sub, ast.Name) and (
            sub.id == "mesh" or sub.id.endswith("mesh")
        ):
            return sub.id
        if isinstance(sub, ast.Lambda):
            return "lambda"
    return ""


def _check_flat_wire_payloads(
    tree: ast.Module, path: str, sanctioned: Set[int]
) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _WIRE_METHODS
        ):
            continue
        owner = _base_name(node.func.value).lower()
        if owner not in _WIRE_OWNERS and not owner.endswith(
            ("conn", "engine", "pipe")
        ):
            continue
        if node.lineno in sanctioned:
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            marker = _contains_rich_payload(arg)
            if marker:
                findings.append(Finding(
                    path, node.lineno, "R008",
                    f"non-flat payload ({marker}) in "
                    f"{_base_name(node.func.value)}.{node.func.attr}: only "
                    "flat buffers/primitives may cross the wire (pickling "
                    "views or object graphs silently copies shm pages); "
                    f"mark a deliberate path {_WIRE_SANCTION_TAG!r}",
                ))
                break
    return findings


def _imported_roots(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """``(line, top-level module)`` of every absolute import in ``tree``:
    plain, ``from`` and ``importlib.import_module("...")``, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".", 1)[0]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.lineno, node.module.split(".", 1)[0]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "import_module"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            yield node.lineno, node.args[0].value.split(".", 1)[0]


def _check_backend_imports(tree: ast.Module, path: str) -> List[Finding]:
    """R009: no numba/cupy/jax imports."""
    message = (
        "direct import of optional array module {name!r}: the kernels are "
        "NumPy only, and a missing install would be an ImportError here"
    )
    return [
        Finding(path, line, "R009", message.format(name=root))
        for line, root in _imported_roots(tree)
        if root in _BACKEND_MODULES
    ]


def _check_scipy_imports(tree: ast.Module, path: str) -> List[Finding]:
    """R012: nothing under src/repro/ imports scipy."""
    if "src/repro/" not in path.replace("\\", "/"):
        return []
    return [
        Finding(
            path, line, "R012",
            "scipy import in the package: repro runs on numpy alone "
            "(scipy is a test-only dependency, for the oracles)",
        )
        for line, root in _imported_roots(tree)
        if root == "scipy"
    ]


def _check_cold_plan_build(
    tree: ast.Module, path: str, sanctioned: Set[int]
) -> List[Finding]:
    """R010: no cold plan construction inside a loop body."""
    findings: List[Finding] = []
    seen: Set[tuple] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        if node.lineno in sanctioned:
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            fn = call.func
            name = fn.attr if isinstance(fn, ast.Attribute) else (
                fn.id if isinstance(fn, ast.Name) else ""
            )
            if name not in _COLD_BUILD_FNS or call.lineno in sanctioned:
                continue
            key = (call.lineno, call.col_offset)
            if key in seen:  # nested loops walk the same call twice
                continue
            seen.add(key)
            findings.append(Finding(
                path, call.lineno, "R010",
                f"cold plan construction ({name}) inside a loop re-pays the "
                "full rebuild every iteration; go through plan_for (delta "
                "rebuild / plan cache keyed on the topology fingerprint), or "
                f"mark a deliberate path with {_COLD_SANCTION_TAG!r}",
            ))
    return findings


def _check_barrier_round_in_loop(
    tree: ast.Module, path: str, sanctioned: Set[int]
) -> List[Finding]:
    """R011: no barrier round (a round without ``on_note``) inside a loop
    body."""
    findings: List[Finding] = []
    seen: Set[tuple] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        if node.lineno in sanctioned:
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            fn = call.func
            if not (isinstance(fn, ast.Attribute) and fn.attr == "round"):
                continue
            owner = fn.value
            owner_name = owner.attr if isinstance(owner, ast.Attribute) else (
                owner.id if isinstance(owner, ast.Name) else ""
            )
            if owner_name not in _BARRIER_OWNERS or call.lineno in sanctioned:
                continue
            if any(
                kw.arg == "on_note" and not (
                    isinstance(kw.value, ast.Constant) and kw.value.value is None
                )
                for kw in call.keywords
            ):
                continue
            key = (call.lineno, call.col_offset)
            if key in seen:  # nested loops walk the same call twice
                continue
            seen.add(key)
            findings.append(Finding(
                path, call.lineno, "R011",
                "barrier round inside a loop makes every rank wait for "
                "the slowest at every op; group the ops and route their "
                "dependencies with on_note, or "
                "mark a deliberate barrier (BSP ablation, reflux "
                f"collective) with {_BARRIER_SANCTION_TAG!r}",
            ))
    return findings


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one module's source text; the unit of testing."""
    tree = ast.parse(source, filename=path)
    aliases = _numpy_aliases(tree)
    findings: List[Finding] = []
    findings += _check_hot_loop_alloc(tree, path, aliases)
    findings += _check_ghost_writes(tree, path)
    findings += _check_bare_random(tree, path, aliases)
    findings += _check_uncoalesced_send(tree, path, _sanctioned_lines(source))
    findings += _check_process_spawn(tree, path)
    findings += _check_shm_write_discipline(
        tree, path, _sanctioned_lines(source, _SHM_SANCTION_TAG)
    )
    findings += _check_flat_wire_payloads(
        tree, path, _sanctioned_lines(source, _WIRE_SANCTION_TAG)
    )
    findings += _check_backend_imports(tree, path)
    findings += _check_scipy_imports(tree, path)
    findings += _check_cold_plan_build(
        tree, path, _sanctioned_lines(source, _COLD_SANCTION_TAG)
    )
    findings += _check_barrier_round_in_loop(
        tree, path, _sanctioned_lines(source, _BARRIER_SANCTION_TAG)
    )
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


def _checkout_root(path: Path) -> Optional[Path]:
    """The directory holding ``src/repro/`` if ``path`` lies under it."""
    parts = path.resolve().parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "src" and parts[i + 1] == "repro":
            return Path(*parts[:i])
    return None


def _top_level_defs(tree: ast.Module) -> List[ast.AST]:
    return [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def _methods(tree: ast.Module) -> List[Tuple[str, ast.AST]]:
    """``(qualname, def)`` for every method and property of every class
    defined at module level or nested in one; dunders are exempt."""
    out: List[Tuple[str, ast.AST]] = []

    def visit(cls: ast.ClassDef, prefix: str) -> None:
        prefix = f"{prefix}{cls.name}."
        for node in cls.body:
            if isinstance(node, ast.ClassDef):
                visit(node, prefix)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                out.append((prefix + node.name, node))

    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            visit(node, "")
    return out


def _references(tree: ast.Module, is_init: bool) -> List[Tuple[str, str, bool]]:
    """``(name, owner, loose)`` for every name a module reads that can
    denote a definition of the package.  Strict references (``loose``
    false) are attributes and the bare names the module defines at top
    level or imports from ``repro`` (renamed imports count under the
    imported name); loose ones are every other bare name and every
    identifier-shaped string constant (``getattr`` dispatch on op names),
    which only count for methods.  ``owner`` is the qualified definition
    the reference sits in: a top-level name, ``Class.method`` inside a
    method, ``""`` at module level.  An ``__init__`` module's imports are
    re-exports, not uses, and no module's ``__all__`` is a use."""
    defs = _top_level_defs(tree)
    bound: Dict[str, str] = {node.name: node.name for node in defs}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "repro"
        ):
            for alias in node.names:
                bound[alias.asname or alias.name] = alias.name
    refs: List[Tuple[str, str, bool]] = []

    def visit(node: ast.AST, owner: str, in_class: bool) -> None:
        if isinstance(node, ast.Name):
            refs.append((bound.get(node.id, node.id), owner, node.id not in bound))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, owner, False))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                refs.append((node.value, owner, True))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return
        if in_class and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            owner = f"{owner}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, owner, isinstance(node, ast.ClassDef))

    for node in tree.body:
        if is_init and isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        visit(node, node.name if node in defs else "", False)
    return refs


def _caller_index(root: Path) -> Dict[str, Set[Tuple[Path, str, bool]]]:
    """name -> ``{(file, owner, loose)}`` over every caller file of the
    checkout."""
    index: Dict[str, Set[Tuple[Path, str, bool]]] = {}
    for sub in _CALLER_DIRS:
        for file in sorted((root / sub).rglob("*.py")):
            rel = file.relative_to(root).as_posix()
            if rel in _CALLER_EXEMPT:
                continue
            try:
                tree = ast.parse(file.read_text(), filename=str(file))
            except (OSError, UnicodeDecodeError, SyntaxError):
                continue  # R000 reports it when the file is linted
            for name, owner, loose in _references(tree, file.name == "__init__.py"):
                index.setdefault(name, set()).add((file.resolve(), owner, loose))
    return index


def _has_caller(
    refs: Set[Tuple[Path, str, bool]], file: Path, qual: str, loose_ok: bool
) -> bool:
    """Whether any reference lies outside ``qual``'s own body in ``file``."""
    for ref_file, owner, loose in refs:
        if loose and not loose_ok:
            continue
        if ref_file != file or (owner != qual and not owner.startswith(qual + ".")):
            return True
    return False


def _check_callers(files: Sequence[Path]) -> List[Finding]:
    """R013: every top-level definition under src/repro/, and every method
    and property of its classes, has a caller."""
    findings: List[Finding] = []
    indexes: Dict[Path, Dict[str, Set[Tuple[Path, str, bool]]]] = {}
    for file in files:
        root = _checkout_root(file)
        if root is None:
            continue
        if root not in indexes:
            indexes[root] = _caller_index(root)
        try:
            source = file.read_text()
            tree = ast.parse(source, filename=str(file))
        except (OSError, UnicodeDecodeError, SyntaxError):
            continue
        lines = source.splitlines()
        candidates = [(node.name, node, False) for node in _top_level_defs(tree)]
        candidates += [(qual, node, True) for qual, node in _methods(tree)]
        for qual, node, is_method in candidates:
            if _ANY_SANCTION_TAG in lines[node.lineno - 1]:
                continue
            refs = indexes[root].get(node.name, set())
            if _has_caller(refs, file.resolve(), qual, is_method):
                continue
            findings.append(Finding(
                str(file), node.lineno, "R013",
                f"{qual!r} has no caller in src/, benchmarks/, "
                "examples/ or tools/; move a test oracle to tests/oracles/, "
                "delete dead code, or mark a deliberate keeper "
                f"'{_ANY_SANCTION_TAG}<reason>'",
            ))
    return findings


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def lint_paths(paths: Iterable[str]) -> List[Finding]:
    findings: List[Finding] = []
    for file in iter_python_files(paths):
        try:
            source = file.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(Finding(str(file), 0, "R000", f"unreadable: {exc}"))
            continue
        try:
            findings.extend(lint_source(source, str(file)))
        except SyntaxError as exc:
            findings.append(Finding(str(file), exc.lineno or 0, "R000", f"syntax error: {exc.msg}"))
    findings.extend(_check_callers(iter_python_files(paths)))
    return findings


#: Stable exit codes (CI contracts on these).
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_UNPARSEABLE = 3


def main(argv: List[str]) -> int:
    json_mode = "--json" in argv
    paths = [a for a in argv if a != "--json"]
    if not paths or paths[0] in ("-h", "--help"):
        print(__doc__)
        return EXIT_CLEAN if paths else EXIT_USAGE
    findings = lint_paths(paths)
    n_files = len(iter_python_files(paths))
    if json_mode:
        print(json.dumps(
            {
                "files_checked": n_files,
                "clean": not findings,
                "findings": [
                    {
                        "path": f.path,
                        "line": f.line,
                        "rule": f.rule,
                        "message": f.message,
                    }
                    for f in findings
                ],
            },
            indent=2,
        ))
    else:
        for finding in findings:
            print(finding)
        status = f"{len(findings)} finding(s)" if findings else "clean"
        print(f"reprolint: {n_files} file(s) checked, {status}")
    if any(f.rule == "R000" for f in findings):
        return EXIT_UNPARSEABLE
    return EXIT_FINDINGS if findings else EXIT_CLEAN


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
