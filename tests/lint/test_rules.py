"""Per-rule fixture tests: each rule fires on its target pattern, stays
quiet on the compliant variant, and honours a reasoned pragma."""

from __future__ import annotations

import textwrap

import pytest

from tools.reprolint import lint_source


def run(source: str, relpath: str = "src/repro/example.py", rules=None):
    return lint_source(textwrap.dedent(source), relpath, rules=rules)


def rule_ids(findings) -> list:
    return [finding.rule for finding in findings]


# --------------------------------------------------------------------- #
# lock-discipline
# --------------------------------------------------------------------- #
SERVICE_UNLOCKED = """
    import threading

    class Service:
        def __init__(self, store):
            self._lock = threading.Lock()
            self._cache = _ChunkCache(64)
            self._flights = {}
            self._hits = 0

        def get(self, addr):
            self._hits += 1
            return self._cache.get(addr)
"""

SERVICE_LOCKED = """
    import threading

    class Service:
        def __init__(self, store):
            self._lock = threading.Lock()
            self._cache = _ChunkCache(64)
            self._flights = {}
            self._hits = 0

        def get(self, addr):
            with self._lock:
                self._hits += 1
                return self._cache.get(addr)

        def _evict_locked(self, addr):
            del self._flights[addr]
"""


class TestLockDiscipline:
    def test_unlocked_counter_and_cache_access_fire(self):
        findings = run(SERVICE_UNLOCKED, rules=["lock-discipline"])
        assert rule_ids(findings) == ["lock-discipline", "lock-discipline"]
        assert "self._hits" in findings[0].message
        assert "self._cache" in findings[1].message

    def test_locked_and_locked_suffix_accesses_are_clean(self):
        assert run(SERVICE_LOCKED, rules=["lock-discipline"]) == []

    def test_immutable_config_attrs_are_freely_readable(self):
        source = """
            import threading

            class Service:
                def __init__(self, store, seed):
                    self._lock = threading.Lock()
                    self._store = store
                    self._seed = seed
                    self._flights = {}

                def describe(self):
                    return (self._store, self._seed)
        """
        assert run(source, rules=["lock-discipline"]) == []

    def test_module_level_lock_guards_module_globals(self):
        source = """
            import threading

            _LOCK = threading.Lock()
            _CACHE = {}
            _HITS = 0

            def lookup(key):
                global _HITS
                _HITS += 1
                return _CACHE.get(key)
        """
        findings = run(source, relpath="src/repro/sht/example.py",
                       rules=["lock-discipline"])
        assert rule_ids(findings) == ["lock-discipline", "lock-discipline"]

    def test_class_without_lock_is_out_of_scope(self):
        source = """
            class Plain:
                def __init__(self):
                    self._cache = {}

                def get(self, key):
                    return self._cache.get(key)
        """
        assert run(source, rules=["lock-discipline"]) == []

    def test_pragma_with_reason_suppresses(self):
        source = SERVICE_UNLOCKED.replace(
            "self._hits += 1",
            "self._hits += 1  # reprolint: allow[lock-discipline] "
            "stat counter, torn reads acceptable",
        ).replace(
            "return self._cache.get(addr)",
            "# reprolint: allow[lock-discipline] single-threaded test double\n"
            "        return self._cache.get(addr)",
        )
        assert run(source, rules=["lock-discipline"]) == []


# --------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------- #
class TestDeterminism:
    @pytest.mark.parametrize(
        "stmt",
        [
            "np.random.seed(0)",
            "x = np.random.rand(3)",
            "import random",
            "t = time.time()",
            "now = datetime.datetime.now()",
        ],
    )
    def test_global_entropy_and_wall_clock_fire(self, stmt):
        source = f"import time\nimport datetime\nimport numpy as np\n{stmt}\n"
        findings = lint_source(source, "src/repro/core/example.py",
                               rules=["determinism"])
        assert rule_ids(findings) == ["determinism"]

    def test_generator_api_and_perf_counter_are_clean(self):
        source = """
            import time
            import numpy as np

            def sample(seed):
                rng = np.random.default_rng(np.random.SeedSequence(seed))
                start = time.perf_counter()
                return rng.standard_normal(4), time.perf_counter() - start
        """
        assert run(source, rules=["determinism"]) == []

    def test_rule_is_scoped_to_src_repro(self):
        findings = lint_source("import random\n", "tools/example.py",
                               rules=["determinism"])
        assert findings == []

    def test_pragma_with_reason_suppresses(self):
        source = (
            "import time\n"
            "t = time.time()  # reprolint: allow[determinism] "
            "wall-clock label on a report, not a code path\n"
        )
        assert lint_source(source, "src/repro/core/example.py",
                           rules=["determinism"]) == []


# --------------------------------------------------------------------- #
# index-recovery
# --------------------------------------------------------------------- #
class TestIndexRecovery:
    @pytest.mark.parametrize(
        "expr",
        [
            "int(np.sqrt(n_coeffs))",
            "round(math.sqrt(n_coeffs))",
            "int(round(np.sqrt(n_coeffs)))",
        ],
    )
    def test_float_sqrt_index_recovery_fires(self, expr):
        source = f"import math\nimport numpy as np\nn_coeffs = 25\nlmax = {expr} - 1\n"
        findings = lint_source(source, rules=["index-recovery"])
        assert "index-recovery" in rule_ids(findings)

    def test_isqrt_is_clean(self):
        source = "import math\nn_coeffs = 25\nlmax = math.isqrt(n_coeffs) - 1\n"
        assert lint_source(source, rules=["index-recovery"]) == []

    def test_plain_float_sqrt_without_cast_is_clean(self):
        source = "import numpy as np\nsigma = np.sqrt(variance)\nvariance = 4.0\n"
        assert lint_source(source, rules=["index-recovery"]) == []

    def test_pragma_with_reason_suppresses(self):
        source = (
            "import numpy as np\n"
            "usable = 1.0e9\n"
            "# reprolint: allow[index-recovery] sizing heuristic on floats\n"
            "n = int(np.sqrt(usable))\n"
        )
        assert lint_source(source, rules=["index-recovery"]) == []


# --------------------------------------------------------------------- #
# state-protocol
# --------------------------------------------------------------------- #
class TestStateProtocol:
    def test_state_dict_without_from_state_fires(self):
        source = """
            class Stage:
                def state_dict(self):
                    return {}
        """
        findings = run(source, rules=["state-protocol"])
        assert rule_ids(findings) == ["state-protocol"]

    def test_from_state_without_state_dict_fires(self):
        source = """
            class Stage:
                @classmethod
                def from_state(cls, state):
                    return cls()
        """
        findings = run(source, rules=["state-protocol"])
        assert rule_ids(findings) == ["state-protocol"]

    def test_from_state_must_be_a_classmethod(self):
        source = """
            class Stage:
                def state_dict(self):
                    return {}

                def from_state(self, state):
                    return Stage()
        """
        findings = run(source, rules=["state-protocol"])
        assert rule_ids(findings) == ["state-protocol"]
        assert "classmethod" in findings[0].message

    def test_paired_protocol_is_clean(self):
        source = """
            class Stage:
                def state_dict(self):
                    return {}

                @classmethod
                def from_state(cls, state):
                    return cls()
        """
        assert run(source, rules=["state-protocol"]) == []

    def test_pragma_with_reason_suppresses(self):
        source = """
            # reprolint: allow[state-protocol] serialises through the component registry
            class Stage:
                def state_dict(self):
                    return {}
        """
        assert run(source, rules=["state-protocol"]) == []


# --------------------------------------------------------------------- #
# nonfinite-write
# --------------------------------------------------------------------- #
class TestNonFiniteWrite:
    def test_unvalidated_savez_fires(self):
        source = """
            import numpy as np

            def write_shard(path, payload):
                np.savez(path, **payload)
        """
        findings = run(source, relpath="src/repro/storage/example.py",
                       rules=["nonfinite-write"])
        assert rule_ids(findings) == ["nonfinite-write"]

    def test_transitively_validated_savez_is_clean(self):
        source = """
            import numpy as np

            def _require_finite(arr):
                if not np.isfinite(arr).all():
                    raise ValueError("non-finite payload")

            def _encode(arr):
                _require_finite(arr)
                return arr

            def write_shard(path, arr):
                np.savez(path, arr=_encode(arr))
        """
        assert run(source, relpath="src/repro/storage/example.py",
                   rules=["nonfinite-write"]) == []

    @pytest.mark.parametrize("write", [
        "with open(path, 'wb') as handle:\n        handle.write(payload)",
        "fd = os.open(path, os.O_WRONLY)\n    os.write(fd, payload)",
        "payload.tofile(path)",
        "with open(path, 'wb') as handle:\n        handle.writelines([payload])",
    ])
    def test_unvalidated_raw_array_write_fires(self, write):
        source = (
            "import os\n\n"
            f"def write_shard(path, payload):\n    {write}\n"
        )
        findings = lint_source(source, "src/repro/storage/example.py",
                               rules=["nonfinite-write"])
        assert rule_ids(findings) == ["nonfinite-write"]

    def test_transitively_validated_raw_write_is_clean(self):
        source = """
            import numpy as np

            def _require_finite(arr):
                if not np.isfinite(arr).all():
                    raise ValueError("non-finite payload")

            def write_shard(path, arr):
                _require_finite(arr)
                payload = np.ascontiguousarray(arr)
                with open(path, "wb") as handle:
                    handle.write(payload)
        """
        assert run(source, relpath="src/repro/storage/example.py",
                   rules=["nonfinite-write"]) == []

    def test_text_writes_are_not_array_writes(self):
        source = """
            import json
            import os

            def append(path, record, fd):
                line = (json.dumps({"put": record}) + "\\n").encode("utf-8")
                with open(path, "ab") as handle:
                    handle.write(line)
                    handle.write(json.dumps(record))
                    handle.write(f"{os.getpid()}\\n")
                os.write(fd, b"pid")
        """
        assert run(source, relpath="src/repro/storage/example.py",
                   rules=["nonfinite-write"]) == []

    def test_rule_is_scoped_to_storage(self):
        source = "import numpy as np\n\ndef dump(p, a):\n    np.savez(p, a=a)\n"
        assert lint_source(source, "src/repro/core/example.py",
                           rules=["nonfinite-write"]) == []

    def test_pragma_with_reason_suppresses(self):
        source = """
            import numpy as np

            def write_raw(path, payload):
                # reprolint: allow[nonfinite-write] payload validated by the caller
                np.savez(path, **payload)
        """
        assert run(source, relpath="src/repro/storage/example.py",
                   rules=["nonfinite-write"]) == []


# --------------------------------------------------------------------- #
# api-hygiene (project rule: needs a miniature source tree on disk)
# --------------------------------------------------------------------- #
class TestApiHygiene:
    @staticmethod
    def write_tree(root, *, init, module="", api_md=None):
        package = root / "src" / "repro"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(textwrap.dedent(init))
        if module:
            (package / "mod.py").write_text(textwrap.dedent(module))
        if api_md is not None:
            docs = root / "docs"
            docs.mkdir()
            (docs / "api.md").write_text(api_md)

    @staticmethod
    def lint(root):
        from tools.reprolint import lint_paths

        report = lint_paths(root, ["src"], rules=["api-hygiene"])
        return report.findings

    def test_resolvable_documented_sorted_api_is_clean(self, tmp_path):
        self.write_tree(
            tmp_path,
            init="""
                from repro.mod import alpha, beta

                __all__ = ["alpha", "beta"]
            """,
            module="""
                def alpha():
                    \"\"\"First public helper.\"\"\"

                def beta():
                    \"\"\"Second public helper.\"\"\"
            """,
            api_md="# API\n\n`alpha` and `beta` are documented here.\n",
        )
        assert self.lint(tmp_path) == []

    def test_submodule_export_resolves_to_module_docstring(self, tmp_path):
        package = tmp_path / "src" / "repro"
        (package / "obs").mkdir(parents=True)
        (package / "__init__.py").write_text(
            'from repro import obs\n\n__all__ = ["obs"]\n'
        )
        (package / "obs" / "__init__.py").write_text('"""Telemetry layer."""\n')
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "api.md").write_text("`obs` is documented here.\n")
        assert self.lint(tmp_path) == []

    def test_submodule_export_without_module_docstring_fires(self, tmp_path):
        package = tmp_path / "src" / "repro"
        (package / "obs").mkdir(parents=True)
        (package / "__init__.py").write_text(
            'from repro import obs\n\n__all__ = ["obs"]\n'
        )
        (package / "obs" / "__init__.py").write_text("x = 1\n")
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "api.md").write_text("`obs`\n")
        findings = self.lint(tmp_path)
        assert rule_ids(findings) == ["api-hygiene"]
        assert "no docstring" in findings[0].message

    def test_unresolvable_export_fires(self, tmp_path):
        self.write_tree(
            tmp_path,
            init='__all__ = ["ghost"]\n',
            api_md="`ghost`\n",
        )
        findings = self.lint(tmp_path)
        assert rule_ids(findings) == ["api-hygiene"]
        assert "does not resolve" in findings[0].message

    def test_missing_docstring_and_missing_doc_listing_fire(self, tmp_path):
        self.write_tree(
            tmp_path,
            init="""
                from repro.mod import alpha, beta

                __all__ = ["alpha", "beta"]
            """,
            module="""
                def alpha():
                    \"\"\"Documented.\"\"\"

                def beta():
                    pass
            """,
            api_md="Only `alpha` is listed.\n",
        )
        messages = [finding.message for finding in self.lint(tmp_path)]
        assert len(messages) == 2
        assert any("no docstring" in message for message in messages)
        assert any("does not appear" in message for message in messages)

    def test_unsorted_all_fires(self, tmp_path):
        self.write_tree(
            tmp_path,
            init="""
                from repro.mod import alpha, beta

                __all__ = ["beta", "alpha"]
            """,
            module="""
                def alpha():
                    \"\"\"First.\"\"\"

                def beta():
                    \"\"\"Second.\"\"\"
            """,
            api_md="`alpha` `beta`\n",
        )
        findings = self.lint(tmp_path)
        assert rule_ids(findings) == ["api-hygiene"]
        assert "sorted" in findings[0].message


# --------------------------------------------------------------------- #
# mutable-default
# --------------------------------------------------------------------- #
class TestMutableDefault:
    @pytest.mark.parametrize(
        "signature",
        ["x=[]", "x={}", "x=set()", "*, x=[1, 2]", "x=dict(a=1)"],
    )
    def test_mutable_defaults_fire(self, signature):
        findings = run(f"def f({signature}):\n    return x\n",
                       rules=["mutable-default"])
        assert rule_ids(findings) == ["mutable-default"]

    @pytest.mark.parametrize("signature", ["x=()", "x=None", "x=0", "x=frozenset()"])
    def test_immutable_defaults_are_clean(self, signature):
        assert run(f"def f({signature}):\n    return x\n",
                   rules=["mutable-default"]) == []

    def test_pragma_with_reason_suppresses(self):
        source = (
            "def f(x=[]):  # reprolint: allow[mutable-default] "
            "sentinel list never mutated\n"
            "    return x\n"
        )
        assert run(source, rules=["mutable-default"]) == []


# --------------------------------------------------------------------- #
# bare-except
# --------------------------------------------------------------------- #
class TestBareExcept:
    def test_bare_except_fires(self):
        source = """
            def f():
                try:
                    work()
                except:
                    raise
        """
        findings = run(source, rules=["bare-except"])
        assert rule_ids(findings) == ["bare-except"]

    def test_swallowing_handler_fires(self):
        source = """
            def f():
                try:
                    work()
                except ValueError:
                    pass
        """
        findings = run(source, rules=["bare-except"])
        assert rule_ids(findings) == ["bare-except"]

    def test_handled_exception_is_clean(self):
        source = """
            def f(log):
                try:
                    work()
                except ValueError as exc:
                    log(exc)
        """
        assert run(source, rules=["bare-except"]) == []

    def test_pragma_with_reason_suppresses(self):
        source = """
            def f():
                try:
                    work()
                # reprolint: allow[bare-except] best-effort cleanup on shutdown
                except Exception:
                    pass
        """
        assert run(source, rules=["bare-except"]) == []


# --------------------------------------------------------------------- #
# telemetry-hygiene
# --------------------------------------------------------------------- #
class TestTelemetryHygiene:
    def test_raw_perf_counter_delta_fires(self):
        source = """
            import time

            def synthesize(work):
                t0 = time.perf_counter()
                work()
                return time.perf_counter() - t0
        """
        findings = run(source, rules=["telemetry-hygiene"])
        assert rule_ids(findings) == ["telemetry-hygiene"] * 2
        assert all("outside the telemetry layer" in f.message for f in findings)

    @pytest.mark.parametrize(
        "timer",
        ["perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
         "process_time"],
    )
    def test_every_clock_read_fires(self, timer):
        source = f"import time\nt = time.{timer}()\n"
        findings = lint_source(source, "src/repro/scenarios/example.py",
                               rules=["telemetry-hygiene"])
        assert rule_ids(findings) == ["telemetry-hygiene"]
        assert f"time.{timer}()" in findings[0].message

    def test_wall_clock_stamps_are_not_timers(self):
        source = "import time\nstamp = time.time()\ntime.sleep(0)\n"
        assert lint_source(source, "src/repro/scenarios/example.py",
                           rules=["telemetry-hygiene"]) == []

    def test_obs_package_and_non_src_trees_are_exempt(self):
        source = "import time\nt = time.perf_counter()\n"
        assert lint_source(source, "src/repro/obs/tracing.py",
                           rules=["telemetry-hygiene"]) == []
        assert lint_source(source, "benchmarks/bench_example.py",
                           rules=["telemetry-hygiene"]) == []

    def test_operational_obs_modules_are_inside_the_layer(self):
        # Every module of the obs package is the telemetry layer: raw
        # timers are its implementation.
        source = """
            import time

            def sample():
                return time.perf_counter()
        """
        for relpath in ("src/repro/obs/tracing.py", "src/repro/obs/__init__.py"):
            assert lint_source(textwrap.dedent(source), relpath,
                               rules=["telemetry-hygiene"]) == [], relpath

    @pytest.mark.parametrize(
        "stmt",
        [
            'with span("hits"):\n    pass',
            'with span("Serve.Get"):\n    pass',
            'with span("docs.demo\\n"):\n    pass',
            'with span(".leading.dot"):\n    pass',
            'with span("double..dot"):\n    pass',
            'with repro.obs.span("Upper.case"):\n    pass',
        ],
    )
    def test_malformed_span_name_fires(self, stmt):
        source = (
            "from repro.obs import span\n"
            f"def f():\n{textwrap.indent(textwrap.dedent(stmt), '    ')}\n"
        )
        findings = lint_source(source, "src/repro/core/example.py",
                               rules=["telemetry-hygiene"])
        assert rule_ids(findings) == ["telemetry-hygiene"]
        assert "not dotted lowercase" in findings[0].message

    def test_module_prefix_fstrings_resolve(self):
        source = """
            from repro.obs import span

            _PREFIX = "sht.plan_cache"

            def f():
                with span(f"{_PREFIX}.build"):
                    pass
        """
        assert run(source, rules=["telemetry-hygiene"]) == []

    def test_module_prefix_fstring_resolving_to_a_bad_name_fires(self):
        source = """
            from repro.obs import span

            _PREFIX = "sht.plan_cache"

            def f():
                with span(f"{_PREFIX}.Build"):
                    pass
        """
        findings = run(source, rules=["telemetry-hygiene"])
        assert rule_ids(findings) == ["telemetry-hygiene"]
        assert "'sht.plan_cache.Build'" in findings[0].message

    def test_unresolvable_fstrings_are_skipped(self):
        source = """
            from repro.obs import span

            def f(component):
                with span(f"{component}.Build"):
                    pass
        """
        assert run(source, rules=["telemetry-hygiene"]) == []

    def test_well_named_spans_are_clean(self):
        source = """
            from repro.obs import span

            def f(name):
                with span("sht.inverse", lmax=48):
                    pass
                with span(name):  # dynamic names are not checked
                    pass
        """
        assert run(source, rules=["telemetry-hygiene"]) == []

    @pytest.mark.parametrize(
        "name", ["a.b", "serve.get", "sht.plan_cache.build", "x_1.y_2.z_3"],
    )
    def test_dotted_lowercase_span_names_are_clean(self, name):
        source = f"from repro.obs import span\nwith span({name!r}):\n    pass\n"
        assert lint_source(source, "src/repro/core/example.py",
                           rules=["telemetry-hygiene"]) == []

    def test_a_span_reached_through_the_obs_module_is_checked(self):
        source = """
            from repro import obs

            def f():
                with obs.span("Serve.Get"):
                    pass
        """
        findings = run(source, rules=["telemetry-hygiene"])
        assert rule_ids(findings) == ["telemetry-hygiene"]
        assert "'Serve.Get'" in findings[0].message

    @pytest.mark.parametrize(
        "call",
        ['log.info("Hits")', 'spanner("Serve.Get")', 'self.span("Upper")',
         'names.append("hits")'],
    )
    def test_strings_handed_to_other_calls_are_not_span_names(self, call):
        source = f"def f(self, log, names):\n    {call}\n"
        assert lint_source(source, "src/repro/core/example.py",
                           rules=["telemetry-hygiene"]) == []

    def test_pragma_with_reason_suppresses(self):
        source = (
            "import time\n"
            "t = time.perf_counter()  # reprolint: allow[telemetry-hygiene] "
            "coarse once-per-run stamp, not a hot-path measurement\n"
        )
        assert lint_source(source, "src/repro/core/example.py",
                           rules=["telemetry-hygiene"]) == []


# --------------------------------------------------------------------- #
# manifest-commit
# --------------------------------------------------------------------- #
STORE_OUTSIDE_PROTOCOL = """
    class Store:
        def __init__(self):
            self._chunks = {}
            self._manifest_token = None

        def _dump_manifest_locked(self, chunks):
            pass

        def _flock_locked(self):
            pass

        def add(self, address, entry):
            self._chunks[address] = entry
            self._dump_manifest_locked(self._chunks)
"""

STORE_INSIDE_PROTOCOL = """
    class Store:
        def __init__(self):
            self._chunks = {}
            self._manifest_token = None

        def _dump_manifest_locked(self, chunks):
            pass

        def _flock_locked(self):
            pass

        def _commit_locked(self, entry):
            self._chunks.update(entry)
            self._dump_manifest_locked(self._chunks)

        def prune(self):
            with self._flock_locked():
                self._chunks = {}
                self._dump_manifest_locked(self._chunks)
                self._manifest_token = None
"""


class TestManifestCommit:
    def test_mutation_and_dump_outside_protocol_fire(self):
        findings = run(
            STORE_OUTSIDE_PROTOCOL,
            relpath="src/repro/storage/example.py",
            rules=["manifest-commit"],
        )
        assert rule_ids(findings) == ["manifest-commit", "manifest-commit"]
        assert "self._chunks" in findings[0].message
        assert "_dump_manifest_locked" in findings[1].message

    def test_locked_methods_and_transactions_are_clean(self):
        assert run(
            STORE_INSIDE_PROTOCOL,
            relpath="src/repro/storage/example.py",
            rules=["manifest-commit"],
        ) == []

    def test_mutator_calls_fire(self):
        source = STORE_OUTSIDE_PROTOCOL.replace(
            "self._chunks[address] = entry",
            "self._chunks.update({address: entry})",
        )
        findings = run(
            source,
            relpath="src/repro/storage/example.py",
            rules=["manifest-commit"],
        )
        assert rule_ids(findings) == ["manifest-commit", "manifest-commit"]
        assert "self._chunks.update()" in findings[0].message

    def test_journal_append_outside_protocol_fires(self):
        source = STORE_INSIDE_PROTOCOL + """
        def _append_journal_locked(self, record):
            pass

        def add(self, record):
            self._append_journal_locked(record)
"""
        findings = run(
            source,
            relpath="src/repro/storage/example.py",
            rules=["manifest-commit"],
        )
        assert rule_ids(findings) == ["manifest-commit"]
        assert "_append_journal_locked" in findings[0].message

    @pytest.mark.parametrize("attr", [
        "_journal", "_journal_offset", "_journal_entries", "_revision",
    ])
    def test_journal_position_mutation_outside_protocol_fires(self, attr):
        source = STORE_INSIDE_PROTOCOL + f"""
        def rewind(self):
            self.{attr} = 0
"""
        findings = run(
            source,
            relpath="src/repro/storage/example.py",
            rules=["manifest-commit"],
        )
        assert rule_ids(findings) == ["manifest-commit"]
        assert f"self.{attr}" in findings[0].message

    def test_journal_append_inside_a_transaction_is_clean(self):
        source = """
            class Store:
                def _flock_locked(self):
                    pass

                def _append_journal_locked(self, record):
                    self._journal_offset += 1

                def add(self, record):
                    with self._flock_locked():
                        self._append_journal_locked(record)
                        self._journal_entries += len(record)
        """
        assert run(
            source,
            relpath="src/repro/storage/example.py",
            rules=["manifest-commit"],
        ) == []

    def test_out_of_scope_paths_and_manifestless_classes_are_clean(self):
        # Same source outside src/repro/storage/ is out of scope...
        assert run(STORE_OUTSIDE_PROTOCOL, rules=["manifest-commit"]) == []
        # ...and a storage class without a _dump_manifest* method is too.
        source = """
            class Cache:
                def __init__(self):
                    self._chunks = {}

                def add(self, address, entry):
                    self._chunks[address] = entry
        """
        assert run(
            source,
            relpath="src/repro/storage/example.py",
            rules=["manifest-commit"],
        ) == []

    def test_pragma_with_reason_suppresses(self):
        source = STORE_OUTSIDE_PROTOCOL.replace(
            "self._chunks[address] = entry",
            "# reprolint: allow[manifest-commit] single-process test double\n"
            "            self._chunks[address] = entry",
        ).replace(
            "self._dump_manifest_locked(self._chunks)",
            "# reprolint: allow[manifest-commit] single-process test double\n"
            "            self._dump_manifest_locked(self._chunks)",
        )
        assert run(
            source,
            relpath="src/repro/storage/example.py",
            rules=["manifest-commit"],
        ) == []


# --------------------------------------------------------------------- #
# import-layering
# --------------------------------------------------------------------- #
class TestImportLayering:
    def test_upward_import_at_module_level_fires(self):
        findings = run(
            "from repro.scenarios.campaign import run_campaign\n",
            relpath="src/repro/sht/example.py",
            rules=["import-layering"],
        )
        assert rule_ids(findings) == ["import-layering"]
        assert "`repro.sht` imports `repro.scenarios.campaign`" in findings[0].message

    def test_allowed_same_layer_and_lazy_imports_are_clean(self):
        source = """
            from typing import TYPE_CHECKING

            from repro.obs import span
            from repro.sht.grid import Grid

            if TYPE_CHECKING:
                from repro.serving.service import EmulationService

            def late():
                from repro.api.facade import load
                return load
        """
        assert run(
            source, relpath="src/repro/sht/example.py", rules=["import-layering"]
        ) == []

    def test_guarded_module_level_import_still_fires(self):
        source = """
            try:
                import repro.serving.service
            except ImportError:
                pass
        """
        findings = run(
            source, relpath="src/repro/storage/example.py", rules=["import-layering"]
        )
        assert rule_ids(findings) == ["import-layering"]

    def test_layer_without_a_row_may_import_nothing(self):
        findings = run(
            "from repro import obs\n",
            relpath="src/repro/newlayer/example.py",
            rules=["import-layering"],
        )
        assert rule_ids(findings) == ["import-layering"]
        assert "allows only nothing" in findings[0].message

    def test_listed_exception_is_quiet_but_only_for_its_module(self):
        assert run(
            "from repro.linalg.flops import sht_contraction_flops\n",
            relpath="src/repro/sht/transform.py",
            rules=["import-layering"],
        ) == []
        findings = run(
            "from repro.linalg.cholesky import MixedPrecisionCholesky\n",
            relpath="src/repro/sht/transform.py",
            rules=["import-layering"],
        )
        assert rule_ids(findings) == ["import-layering"]

    def test_files_outside_src_are_out_of_scope(self):
        # (The root src/repro/__init__.py, which re-exports every layer,
        # is covered by the clean-tree test.)
        source = "from repro.serving.service import EmulationService\n"
        assert run(source, relpath="benchmarks/example.py", rules=["import-layering"]) == []

    def test_pragma_with_reason_suppresses(self):
        source = (
            "# reprolint: allow[import-layering] fixture: deliberate upward edge\n"
            "from repro.serving.service import EmulationService\n"
        )
        assert run(
            source, relpath="src/repro/core/example.py", rules=["import-layering"]
        ) == []
