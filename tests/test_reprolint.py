"""reprolint rules against fixture snippets, plus a clean pass on src/."""

import json
import subprocess
import sys
from pathlib import Path

from tools.reprolint import lint_paths, lint_source

REPO = Path(__file__).resolve().parent.parent


def rules(findings):
    return sorted({f.rule for f in findings})


class TestHotLoopAlloc:
    def test_alloc_in_kernel_loop_flagged(self):
        src = (
            "import numpy as np\n"
            "def flux_kernel(n):\n"
            "    for i in range(n):\n"
            "        tmp = np.zeros(8)\n"
        )
        findings = lint_source(src)
        assert rules(findings) == ["R001"]
        assert findings[0].line == 4

    def test_alloc_outside_loop_ok(self):
        src = (
            "import numpy as np\n"
            "def flux_kernel(n):\n"
            "    tmp = np.zeros(8)\n"
            "    for i in range(n):\n"
            "        tmp[i % 8] = i\n"
        )
        assert lint_source(src) == []

    def test_non_kernel_function_exempt(self):
        src = (
            "import numpy as np\n"
            "def setup(n):\n"
            "    for i in range(n):\n"
            "        tmp = np.zeros(8)\n"
        )
        assert lint_source(src) == []

    def test_while_loop_and_alias(self):
        src = (
            "import numpy\n"
            "def kernel(n):\n"
            "    while n:\n"
            "        numpy.empty_like(n)\n"
            "        n -= 1\n"
        )
        assert rules(lint_source(src)) == ["R001"]


class TestGhostWrites:
    def test_ghost_slices_call_flagged(self):
        src = "def f(sg):\n    sg.data[sg.ghost_slices(0, 0)] = 1.0\n"
        assert rules(lint_source(src, "src/repro/hydro/x.py")) == ["R002"]

    def test_ghost_module_exempt(self):
        src = "def f(sg):\n    sg.insert(sg.ghost_slices(0, 0), 1.0)\n"
        assert lint_source(src, "src/repro/octree/ghost.py") == []


class TestBareRandom:
    def test_legacy_global_state_flagged(self):
        src = "import numpy as np\nx = np.random.rand(4)\n"
        assert rules(lint_source(src)) == ["R004"]

    def test_seed_flagged(self):
        src = "import numpy\nnumpy.random.seed(42)\n"
        assert rules(lint_source(src)) == ["R004"]

    def test_default_rng_ok(self):
        src = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert lint_source(src) == []

    def test_legacy_import_from_flagged(self):
        src = "from numpy.random import rand\n"
        assert rules(lint_source(src)) == ["R004"]

    def test_default_rng_import_ok(self):
        src = "from numpy.random import default_rng\n"
        assert lint_source(src) == []


class TestUncoalescedSend:
    def test_network_send_in_loop_flagged(self):
        src = (
            "def fill(network, faces):\n"
            "    for face in faces:\n"
            "        network.send(face.msg, face.deliver)\n"
        )
        findings = lint_source(src)
        assert rules(findings) == ["R005"]
        assert findings[0].line == 3

    def test_transport_attribute_send_in_while_flagged(self):
        src = (
            "def drain(self):\n"
            "    while self.queue:\n"
            "        self.transport.send(self.queue.pop())\n"
        )
        assert rules(lint_source(src)) == ["R005"]

    def test_send_outside_loop_ok(self):
        src = "def notify(network, msg):\n    network.send(msg, None)\n"
        assert lint_source(src) == []

    def test_unrelated_send_in_loop_ok(self):
        # Only message-layer receivers count; generator .send and queue
        # .send-alikes are not the pattern R005 targets.
        src = (
            "def pump(gen, items):\n"
            "    for item in items:\n"
            "        gen.send(item)\n"
        )
        assert lint_source(src) == []

    def test_sanction_on_send_line(self):
        src = (
            "def retransmit(transport, pending):\n"
            "    for msg in pending:\n"
            "        transport.send(msg)  # reprolint: sanctioned-bundle\n"
        )
        assert lint_source(src) == []

    def test_sanction_on_loop_header(self):
        src = (
            "def ablation(network, faces):\n"
            "    for face in faces:  # reprolint: sanctioned-bundle\n"
            "        network.send(face.msg)\n"
        )
        assert lint_source(src) == []

    def test_nested_loops_report_once(self):
        src = (
            "def storm(network, stages):\n"
            "    for stage in stages:\n"
            "        for face in stage:\n"
            "            network.send(face)\n"
        )
        findings = lint_source(src)
        assert [f.rule for f in findings] == ["R005"]

    def test_sanctioned_outer_loop_still_flags_inner(self):
        # The sanction covers the loop it annotates, not everything under
        # an outer sanctioned loop.
        src = (
            "def mixed(network, stages):\n"
            "    for stage in stages:  # reprolint: sanctioned-bundle\n"
            "        network.flush(stage)\n"
            "        for face in stage:\n"
            "            network.send(face)\n"
        )
        assert rules(lint_source(src)) == ["R005"]


class TestProcessSpawn:
    def test_import_from_flagged(self):
        src = "from multiprocessing import Process\n"
        assert rules(lint_source(src, "src/repro/core/x.py")) == ["R006"]
        src = "from multiprocessing.context import Pool\n"
        assert rules(lint_source(src, "src/repro/core/x.py")) == ["R006"]

    def test_attribute_spawn_flagged(self):
        src = (
            "import multiprocessing\n"
            "p = multiprocessing.Process(target=print)\n"
        )
        assert rules(lint_source(src, "src/repro/x.py")) == ["R006"]
        src = "import multiprocessing as mp\npool = mp.Pool(4)\n"
        assert rules(lint_source(src, "src/repro/x.py")) == ["R006"]

    def test_get_context_spawn_flagged(self):
        src = (
            "import multiprocessing as mp\n"
            "p = mp.get_context('fork').Process(target=print)\n"
        )
        assert rules(lint_source(src, "src/repro/x.py")) == ["R006"]

    def test_context_variable_spawn_flagged(self):
        src = (
            "import multiprocessing as mp\n"
            "ctx = mp.get_context('fork')\n"
            "p = ctx.Process(target=print)\n"
        )
        assert rules(lint_source(src, "src/repro/x.py")) == ["R006"]

    def test_parallel_module_exempt(self):
        src = (
            "import multiprocessing as mp\n"
            "p = mp.Process(target=print)\n"
        )
        assert lint_source(src, "src/repro/amt/parallel.py") == []

    def test_unrelated_process_attribute_ok(self):
        src = "import psutil\np = psutil.Process()\n"
        assert lint_source(src, "src/repro/x.py") == []
        src = "from multiprocessing import shared_memory\n"
        assert lint_source(src, "src/repro/x.py") == []


_SHM_PRELUDE = (
    "import numpy as np\n"
    "from repro.amt.shm import ShmArena\n"
    "arena = ShmArena(64)\n"
    "view = arena.ndarray((8,), dtype=np.float64)\n"
)


class TestShmWriteDiscipline:
    def test_bare_write_flagged(self):
        src = _SHM_PRELUDE + "def f(x):\n    view[0] = x\n"
        assert rules(lint_source(src, "src/repro/x.py")) == ["R007"]

    def test_augassign_and_copyto_flagged(self):
        src = _SHM_PRELUDE + (
            "def f(x):\n"
            "    view[1:] += x\n"
            "    np.copyto(view, x)\n"
        )
        findings = lint_source(src, "src/repro/x.py")
        assert [f.rule for f in findings] == ["R007", "R007"]

    def test_dispatch_class_method_ok(self):
        src = _SHM_PRELUDE + (
            "class Worker:\n"
            "    def dispatch(self, cmd):\n"
            "        self.apply(cmd)\n"
            "    def apply(self, cmd):\n"
            "        view[0] = cmd\n"
        )
        assert lint_source(src, "src/repro/x.py") == []

    def test_sanction_comment_ok(self):
        src = _SHM_PRELUDE + (
            "def f(x):\n"
            "    view[0] = x  # reprolint: sanctioned-shm\n"
        )
        assert lint_source(src, "src/repro/x.py") == []

    def test_gated_on_shm_import(self):
        src = (
            "import numpy as np\n"
            "view = np.zeros(8)\n"
            "def f(x):\n"
            "    view[0] = x\n"
        )
        assert lint_source(src, "src/repro/x.py") == []

    def test_shm_module_itself_exempt(self):
        src = _SHM_PRELUDE + "def f(x):\n    view[0] = x\n"
        assert lint_source(src, "src/repro/amt/shm.py") == []


class TestFlatWirePayloads:
    def test_mesh_payload_flagged(self):
        src = "def f(engine, mesh):\n    engine.send(0, ('adopt', mesh))\n"
        assert rules(lint_source(src, "src/repro/x.py")) == ["R008"]

    def test_subgrid_and_data_views_flagged(self):
        src = (
            "def f(conn, node):\n"
            "    conn.send(node.subgrid)\n"
            "    conn.send(node.data)\n"
        )
        findings = lint_source(src, "src/repro/x.py")
        assert [f.rule for f in findings] == ["R008", "R008"]

    def test_lambda_over_wire_flagged(self):
        src = "def f(engine):\n    engine.round(('cb', lambda x: x))\n"
        assert rules(lint_source(src, "src/repro/x.py")) == ["R008"]

    def test_flat_payload_ok(self):
        src = (
            "def f(engine, buf):\n"
            "    engine.send(0, ('ghost_unpack', buf, 1.5))\n"
            "    engine.broadcast(('update', 0.1, True))\n"
        )
        assert lint_source(src, "src/repro/x.py") == []

    def test_non_wire_owner_ok(self):
        src = "def f(sock, mesh):\n    sock.send(mesh)\n"
        assert lint_source(src, "src/repro/x.py") == []

    def test_sanction_comment_ok(self):
        src = (
            "def f(conn, mesh):\n"
            "    conn.send(mesh)  # reprolint: sanctioned-wire\n"
        )
        assert lint_source(src, "src/repro/x.py") == []


class TestDriver:
    def test_src_tree_is_clean(self):
        assert lint_paths([str(REPO / "src")]) == []

    def test_tools_and_benchmarks_are_clean(self):
        assert lint_paths([str(REPO / "tools"), str(REPO / "benchmarks")]) == []

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        findings = lint_paths([str(tmp_path)])
        assert rules(findings) == ["R000"]

    def test_module_entrypoint_exit_codes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.reprolint", "src/"],
            cwd=REPO, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_module_entrypoint_flags_bad_file(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nnp.random.seed(1)\n")
        proc = subprocess.run(
            [sys.executable, "-m", "tools.reprolint", str(bad)],
            cwd=REPO, capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "R004" in proc.stdout

    def test_usage_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.reprolint"],
            cwd=REPO, capture_output=True, text=True,
        )
        assert proc.returncode == 2

    def test_unparseable_exit_code(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        proc = subprocess.run(
            [sys.executable, "-m", "tools.reprolint", str(tmp_path)],
            cwd=REPO, capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert "R000" in proc.stdout

    def test_json_output_clean(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.reprolint", "--json",
             "tools/"],
            cwd=REPO, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["clean"] is True
        assert payload["findings"] == []
        assert payload["files_checked"] > 0

    def test_json_output_findings(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nnp.random.seed(1)\n")
        proc = subprocess.run(
            [sys.executable, "-m", "tools.reprolint", "--json", str(bad)],
            cwd=REPO, capture_output=True, text=True,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["clean"] is False
        [finding] = payload["findings"]
        assert finding["rule"] == "R004"
        assert finding["line"] == 2
        assert finding["path"].endswith("bad.py")


class TestBackendImports:
    def test_direct_numba_import_flagged(self):
        assert rules(lint_source(
            "import numba\n", "src/repro/hydro/fast.py"
        )) == ["R009"]

    def test_from_import_flagged(self):
        assert rules(lint_source(
            "from cupy import asarray\n", "src/repro/gravity/gpu.py"
        )) == ["R009"]

    def test_submodule_import_flagged(self):
        assert rules(lint_source(
            "import jax.numpy as jnp\n", "src/repro/hydro/fast.py"
        )) == ["R009"]

    def test_importlib_sidedoor_flagged(self):
        src = (
            "import importlib\n"
            "numba = importlib.import_module('numba')\n"
        )
        assert rules(lint_source(src, "src/repro/hydro/fast.py")) == ["R009"]

    def test_relative_import_not_confused(self):
        # `from .numba import x` is a package-local module, not the JIT.
        src = "from .numba import helper\n"
        assert lint_source(src, "src/repro/hydro/fast.py") == []

    def test_unrelated_imports_ok(self):
        assert lint_source(
            "import numpy as np\nimport importlib\n",
            "src/repro/hydro/fast.py",
        ) == []


class TestModuleLevelScipy:
    def test_module_level_imports_flagged(self):
        for src in (
            "import scipy\n",
            "from scipy.optimize import brentq\n",
            "import scipy.fft as sp_fft\n",
            "try:\n    from scipy import ndimage\nexcept ImportError:\n    ndimage = None\n",
            "class Solver:\n    from scipy import fft\n",
        ):
            assert rules(lint_source(src, "src/repro/scf/x.py")) == ["R012"], src

    def test_function_level_import_flagged(self):
        # The package runs on numpy alone: a lazy import still loads scipy.
        for src in (
            "def solve(f, a, b):\n"
            "    from scipy.optimize import brentq\n"
            "\n"
            "    return brentq(f, a, b)\n",
            "import importlib\n"
            "def solve():\n"
            "    return importlib.import_module('scipy.fft')\n",
        ):
            assert rules(lint_source(src, "src/repro/scf/x.py")) == ["R012"], src

    def test_only_the_package_is_covered(self):
        # Tests, tools and benchmarks may import scipy wherever they like.
        assert lint_source("import scipy\n", "tests/test_scf.py") == []
        assert lint_source("from .scipy import x\n", "src/repro/scf/x.py") == []


class TestColdPlanBuild:
    def test_cold_build_in_loop_flagged(self):
        src = (
            "for step in range(10):\n"
            "    plan = build_hydro_plan(mesh)\n"
        )
        assert rules(lint_source(src, "src/repro/core/driver.py")) == ["R010"]

    def test_method_call_in_while_flagged(self):
        src = (
            "while t < t_end:\n"
            "    plan = planner.build_bundle_plan(mesh, offsets)\n"
        )
        assert rules(lint_source(src, "src/repro/core/driver.py")) == ["R010"]

    def test_all_builders_covered(self):
        for fn in ("build_plan", "build_hydro_plan", "build_bundle_plan"):
            src = f"for _ in steps:\n    p = {fn}(mesh)\n"
            assert rules(lint_source(src, "src/repro/x.py")) == ["R010"], fn

    def test_sanctioned_call_line_ok(self):
        src = (
            "for step in range(10):\n"
            "    plan = build_hydro_plan(mesh)"
            "  # reprolint: sanctioned-cold-build\n"
        )
        assert lint_source(src, "src/repro/core/driver.py") == []

    def test_sanctioned_loop_header_ok(self):
        src = (
            "for level in levels:  # reprolint: sanctioned-cold-build\n"
            "    plan = build_plan(mesh, theta=0.5)\n"
        )
        assert lint_source(src, "src/repro/cli.py") == []

    def test_cold_build_outside_loop_ok(self):
        src = "plan = build_hydro_plan(mesh)\n"
        assert lint_source(src, "src/repro/hydro/integrator.py") == []

    def test_nested_loop_reported_once(self):
        src = (
            "for a in outer:\n"
            "    for b in inner:\n"
            "        p = build_bundle_plan(mesh, offsets)\n"
        )
        findings = lint_source(src, "src/repro/x.py")
        assert [f.rule for f in findings] == ["R010"]

    def test_unrelated_call_in_loop_ok(self):
        src = "for s in steps:\n    integrator.plan_for(mesh)\n"
        assert lint_source(src, "src/repro/core/driver.py") == []


class TestBarrierRoundInLoop:
    def test_barrier_round_in_for_loop_flagged(self):
        src = (
            "for stage in stages:\n"
            "    engine.round(('rhs', True))\n"
        )
        assert rules(lint_source(src, "src/repro/hydro/x.py")) == ["R011"]

    def test_attribute_owner_in_while_flagged(self):
        src = (
            "while t < t_end:\n"
            "    self.engine.round(('update', a0, a1, dt))\n"
        )
        assert rules(lint_source(src, "src/repro/hydro/x.py")) == ["R011"]

    def test_sanctioned_call_line_ok(self):
        src = (
            "for stage in stages:\n"
            "    engine.round(('reflux',))"
            "  # reprolint: sanctioned-barrier\n"
        )
        assert lint_source(src, "src/repro/hydro/x.py") == []

    def test_sanctioned_loop_header_ok(self):
        src = (
            "for stage in stages:  # reprolint: sanctioned-barrier\n"
            "    engine.round(('rhs', True))\n"
        )
        assert lint_source(src, "src/repro/hydro/x.py") == []

    def test_round_outside_loop_ok(self):
        src = "engine.round(('begin',))\n"
        assert lint_source(src, "src/repro/hydro/x.py") == []

    def test_async_round_in_loop_ok(self):
        src = "for stage in stages:\n    engine.round(cmd, on_note=h)\n"
        assert lint_source(src, "src/repro/hydro/x.py") == []

    def test_round_with_none_on_note_flagged(self):
        src = "for stage in stages:\n    engine.round(cmd, on_note=None)\n"
        assert rules(lint_source(src, "src/repro/hydro/x.py")) == ["R011"]

    def test_numpy_round_in_loop_ok(self):
        src = "for v in vals:\n    out.append(np.round(v))\n"
        assert lint_source(src, "src/repro/hydro/x.py") == []

    def test_nested_loop_reported_once(self):
        src = (
            "for a in outer:\n"
            "    for b in inner:\n"
            "        engine.round(('rhs',))\n"
        )
        findings = lint_source(src, "src/repro/x.py")
        assert [f.rule for f in findings] == ["R011"]


class TestSrcDefinitionNeedsACaller:
    @staticmethod
    def checkout(root, extra=None):
        files = {
            "src/repro/__init__.py": "",
            "src/repro/mod.py": "def helper():\n    return 1\n",
            "tests/test_mod.py": (
                "from repro.mod import helper\n\n"
                "def test_helper():\n    assert helper() == 1\n"
            ),
        }
        files.update(extra or {})
        for rel, text in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return root

    def test_definition_called_only_from_tests_flagged(self, tmp_path):
        root = self.checkout(tmp_path)
        findings = lint_paths([str(root / "src")])
        assert [(f.rule, f.line) for f in findings] == [("R013", 1)]
        assert "'helper'" in findings[0].message

    def test_benchmark_caller_clears_it(self, tmp_path):
        root = self.checkout(tmp_path, {
            "benchmarks/bench_mod.py": "from repro.mod import helper\n\nhelper()\n",
        })
        assert lint_paths([str(root / "src")]) == []

    def test_callers_read_whatever_paths_are_linted(self, tmp_path):
        root = self.checkout(tmp_path, {
            "examples/demo.py": "import repro.mod\n\nrepro.mod.helper()\n",
        })
        assert lint_paths([str(root / "src" / "repro" / "mod.py")]) == []

    def test_own_body_and_reexport_are_not_callers(self, tmp_path):
        root = self.checkout(tmp_path, {
            "src/repro/mod.py": (
                "def helper(n=1):\n    return helper(n - 1) if n else 0\n"
            ),
            "src/repro/__init__.py": "from repro.mod import helper\n",
        })
        assert rules(lint_paths([str(root / "src")])) == ["R013"]

    def test_api_table_generator_is_not_a_caller(self, tmp_path):
        root = self.checkout(tmp_path, {
            "tools/gen_api_summary.py": "from repro.mod import helper\n\nhelper()\n",
        })
        assert rules(lint_paths([str(root / "src")])) == ["R013"]

    def test_sanction_comment_exempts(self, tmp_path):
        root = self.checkout(tmp_path, {
            "src/repro/mod.py": (
                "def helper():  # reprolint: sanctioned-switch (a check's "
                "on-switch)\n    return 1\n"
            ),
        })
        assert lint_paths([str(root / "src")]) == []

    @staticmethod
    def with_class(root, body, callers=None):
        """A checkout whose ``Box`` class has ``body``; the top-level
        ``helper`` gets a benchmark caller so only the methods are in
        question."""
        files = {
            "src/repro/mod.py": "class Box:\n" + body,
            "benchmarks/bench_mod.py": "from repro.mod import Box\n\nBox()\n",
        }
        files.update(callers or {})
        return TestSrcDefinitionNeedsACaller.checkout(root, files)

    def test_method_called_only_from_tests_flagged(self, tmp_path):
        root = self.with_class(tmp_path, "    def peek(self):\n        return 1\n", {
            "tests/test_mod.py": "from repro.mod import Box\n\nBox().peek()\n",
        })
        findings = lint_paths([str(root / "src")])
        assert [(f.rule, f.line) for f in findings] == [("R013", 2)]
        assert "'Box.peek'" in findings[0].message

    def test_method_own_body_is_not_a_caller(self, tmp_path):
        root = self.with_class(
            tmp_path,
            "    def peek(self, n=1):\n        return self.peek(n - 1) if n else 0\n",
        )
        assert rules(lint_paths([str(root / "src")])) == ["R013"]

    def test_method_called_from_a_sibling_method_ok(self, tmp_path):
        root = self.with_class(
            tmp_path,
            "    def peek(self):\n        return 1\n\n"
            "    def __call__(self):\n        return self.peek()\n",
        )
        assert lint_paths([str(root / "src")]) == []

    def test_getattr_string_dispatch_counts(self, tmp_path):
        root = self.with_class(tmp_path, "    def rhs(self):\n        return 1\n", {
            "src/repro/run.py": (
                "def run(box, ops):\n"
                "    return [getattr(box, op)() for op in ops]\n\n"
                "OPS = ('rhs',)\n"
            ),
            "examples/demo.py": "from repro.run import OPS, run\n\nrun(None, OPS)\n",
        })
        assert lint_paths([str(root / "src")]) == []

    def test_dunders_are_exempt(self, tmp_path):
        root = self.with_class(tmp_path, "    def __repr__(self):\n        return 'Box'\n")
        assert lint_paths([str(root / "src")]) == []

    def test_property_with_a_caller_ok(self, tmp_path):
        root = self.with_class(
            tmp_path,
            "    @property\n    def size(self):\n        return 1\n",
            {"examples/demo.py": "from repro.mod import Box\n\nprint(Box().size)\n"},
        )
        assert lint_paths([str(root / "src")]) == []

    def test_property_without_a_caller_flagged(self, tmp_path):
        root = self.with_class(
            tmp_path, "    @property\n    def size(self):\n        return 1\n"
        )
        findings = lint_paths([str(root / "src")])
        assert [(f.rule, f.line) for f in findings] == [("R013", 3)]

    def test_sanctioned_method_exempt(self, tmp_path):
        root = self.with_class(
            tmp_path,
            "    def crash(self):  # reprolint: sanctioned-chaos (the crash "
            "tests drive it)\n        return 1\n",
        )
        assert lint_paths([str(root / "src")]) == []

    def test_all_listing_is_not_a_caller(self, tmp_path):
        root = self.with_class(tmp_path, "    def peek(self):\n        return 1\n", {
            "src/repro/__init__.py": "__all__ = ['peek']\n",
        })
        assert rules(lint_paths([str(root / "src")])) == ["R013"]

    def test_files_outside_src_repro_are_not_checked(self, tmp_path):
        lone = tmp_path / "lone.py"
        lone.write_text("def orphan():\n    return 1\n")
        assert lint_paths([str(lone)]) == []
