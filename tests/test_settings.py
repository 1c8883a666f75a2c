"""repro.settings: one parser per knob, one reader of REPRO_FD_*."""

from __future__ import annotations

import ast
import os
import re
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster.manager import ReplicaHandle, ReplicaManager
from repro.resilience import faults
from repro.settings import VARIABLES, Settings, override, settings

SRC = Path(__file__).resolve().parent.parent / "src"

MIB = 1024 ** 2
GIB = 1024 ** 3


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------

VALID = [
    ("REPRO_FD_JOBS", "3", "jobs", 3),
    ("REPRO_FD_JOBS", " 4 ", "jobs", 4),
    ("REPRO_FD_JOBS", "0", "jobs", 0),
    ("REPRO_FD_JOBS", "auto", "jobs", 0),
    ("REPRO_FD_JOBS", "AUTO", "jobs", 0),
    ("REPRO_FD_MEMORY_BUDGET", "4m", "memory_budget", 4 * MIB),
    ("REPRO_FD_MEMORY_BUDGET", "1048576", "memory_budget", MIB),
    ("REPRO_FD_MEMORY_BUDGET", " 2kb ", "memory_budget", 2048),
    ("REPRO_FD_RSS_LIMIT", "2g", "rss_limit", 2 * GIB),
    ("REPRO_FD_RSS_LIMIT", "1G", "rss_limit", GIB),
    ("REPRO_FD_ARENA_BUDGET", "64m", "arena_budget", 64 * MIB),
    ("REPRO_FD_ARENA_OWNER", "r1s0", "arena_owner", "r1s0"),
    ("REPRO_FD_ARENA_OWNER", " r2 ", "arena_owner", "r2"),
    ("REPRO_FD_MEMPLANE", "0", "memplane", False),
    ("REPRO_FD_MEMPLANE", " 0 ", "memplane", False),
    ("REPRO_FD_MEMPLANE", "false", "memplane", False),
    ("REPRO_FD_MEMPLANE", "Off", "memplane", False),
    ("REPRO_FD_MEMPLANE", "no", "memplane", False),
    ("REPRO_FD_MEMPLANE", "1", "memplane", True),
    ("REPRO_FD_MEMPLANE", "TRUE", "memplane", True),
    ("REPRO_FD_MEMPLANE", "on", "memplane", True),
    ("REPRO_FD_MEMPLANE", "yes", "memplane", True),
    ("REPRO_FD_CHECKPOINT_INTERVAL", "0", "checkpoint_interval", 0.0),
    ("REPRO_FD_CHECKPOINT_INTERVAL", "2.5", "checkpoint_interval", 2.5),
    ("REPRO_FD_CHECKPOINT_INTERVAL", " 7 ", "checkpoint_interval", 7.0),
]

#: Every variable but the free-form owner token has malformed spellings.
MALFORMED = [
    ("REPRO_FD_JOBS", "many"),
    ("REPRO_FD_JOBS", "-1"),
    ("REPRO_FD_JOBS", "1.5"),
    ("REPRO_FD_MEMORY_BUDGET", "lots"),
    ("REPRO_FD_MEMORY_BUDGET", "0"),
    ("REPRO_FD_MEMORY_BUDGET", "4x"),
    ("REPRO_FD_RSS_LIMIT", "m"),
    ("REPRO_FD_RSS_LIMIT", "-1g"),
    ("REPRO_FD_ARENA_BUDGET", "nope"),
    ("REPRO_FD_MEMPLANE", "maybe"),
    ("REPRO_FD_MEMPLANE", "2"),
    ("REPRO_FD_CHECKPOINT_INTERVAL", "abc"),
    ("REPRO_FD_CHECKPOINT_INTERVAL", "-1"),
    ("REPRO_FD_CHECKPOINT_INTERVAL", "nan"),
]


class TestFromEnviron:
    def test_every_setting_has_a_valid_case(self):
        assert {field for _name, _raw, field, _value in VALID} == set(VARIABLES)

    @pytest.mark.parametrize("name,raw,field,value", VALID)
    def test_valid_spellings(self, name, raw, field, value):
        parsed = Settings.from_environ({name: raw})
        assert getattr(parsed, field) == value
        assert parsed == replace(Settings(), **{field: value})

    @pytest.mark.parametrize("name,raw", MALFORMED)
    def test_malformed_value_names_the_variable(self, name, raw):
        with pytest.raises(ValueError, match=f"^{name}="):
            Settings.from_environ({name: raw})

    @pytest.mark.parametrize("raw", ["", "  "])
    def test_unset_or_blank_keeps_every_default(self, raw):
        assert Settings.from_environ({}) == Settings()
        blank = {name: raw for name, _parse in VARIABLES.values()}
        assert Settings.from_environ(blank) == Settings()

    def test_defaults(self):
        default = Settings()
        assert default.jobs == 1
        assert default.memplane is True
        assert default.checkpoint_interval == 5.0
        assert default.memory_budget is None
        assert default.rss_limit is None
        assert default.arena_budget is None
        assert default.arena_owner is None

    def test_unrelated_variables_are_ignored(self):
        assert Settings.from_environ({"REPRO_FD_JOURNAL": "0", "PATH": "/bin"}) == (
            Settings()
        )

    @pytest.mark.parametrize(
        "value",
        [
            Settings(),
            Settings(jobs=0, memplane=False, checkpoint_interval=0.0),
            Settings(
                jobs=3,
                memory_budget=4 * MIB,
                rss_limit=GIB,
                arena_budget=1,
                arena_owner="r9s1",
                checkpoint_interval=0.25,
            ),
        ],
    )
    def test_environ_round_trips(self, value):
        rendered = value.environ()
        assert set(rendered) == {name for name, _parse in VARIABLES.values()}
        assert Settings.from_environ(rendered) == value


# ----------------------------------------------------------------------
# The active settings
# ----------------------------------------------------------------------


class TestOverride:
    def test_settings_is_cached(self):
        assert settings() is settings()

    def test_override_restores_and_nests(self):
        before = settings()
        with override(jobs=7) as outer:
            assert settings() is outer and outer.jobs == 7
            with override(memplane=not before.memplane):
                assert settings().jobs == 7
                assert settings().memplane is not before.memplane
            assert settings() is outer
        assert settings() is before

    def test_override_restores_after_an_error(self):
        before = settings()
        with pytest.raises(RuntimeError):
            with override(jobs=3):
                raise RuntimeError("boom")
        assert settings() is before

    def test_override_reaches_other_threads(self):
        seen = []
        with override(checkpoint_interval=0.125):
            worker = threading.Thread(target=lambda: seen.append(settings()))
            worker.start()
            worker.join()
        assert seen[0].checkpoint_interval == 0.125

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            with override(journal=False):
                pass


# ----------------------------------------------------------------------
# Children inherit the parent's settings
# ----------------------------------------------------------------------


class TestReplicaEnv:
    def test_overrides_reach_the_replica(self, monkeypatch):
        # The inherited environment says otherwise; the settings win.
        monkeypatch.setenv("REPRO_FD_MEMPLANE", "1")
        monkeypatch.setenv("REPRO_FD_MEMORY_BUDGET", "4m")
        handle = ReplicaHandle(shard=1)
        with override(memplane=False, memory_budget=None, checkpoint_interval=0.0):
            env = ReplicaManager._replica_env(handle)
            expected = replace(settings(), arena_owner=handle.arena_owner)
        assert env["REPRO_FD_MEMPLANE"] == "0"
        assert env["REPRO_FD_MEMORY_BUDGET"] == ""
        assert env["REPRO_FD_CHECKPOINT_INTERVAL"] == "0.0"
        assert env["REPRO_FD_ARENA_OWNER"] == handle.arena_owner
        assert Settings.from_environ(env) == expected

    def test_rest_of_the_environment_is_inherited(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_MARKER", "kept")
        monkeypatch.setenv(faults.ENV_FAULTS, "ddm.stale")
        env = ReplicaManager._replica_env(ReplicaHandle(shard=0))
        assert env["REPRO_TEST_MARKER"] == "kept"
        assert env[faults.ENV_FAULTS] == "ddm.stale"
        assert env["PATH"] == os.environ["PATH"]


# ----------------------------------------------------------------------
# Structural guard: one reader
# ----------------------------------------------------------------------

#: The only modules that may read a REPRO_FD_* variable.
READERS = {"repro/settings.py", "repro/resilience/faults.py"}


def _is_environ(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ"
    )


def _environ_lookups(tree: ast.AST) -> list:
    """Lines that look up one variable: ``environ[...]``,
    ``environ.get/pop/setdefault(...)``, ``... in environ``, ``getenv``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_environ(node.value):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and (
                func.attr == "getenv"
                or (func.attr in ("get", "pop", "setdefault") and _is_environ(func.value))
            ):
                lines.append(node.lineno)
            elif isinstance(func, ast.Name) and func.id == "getenv":
                lines.append(node.lineno)
        elif isinstance(node, ast.Compare) and any(
            _is_environ(c) for c in node.comparators
        ):
            lines.append(node.lineno)
    return lines


def _variable_literals(tree: ast.AST) -> set:
    """``REPRO_FD_*`` names spelled as string constants (not docstrings)."""
    docstrings = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in docstrings
        and re.fullmatch(r"REPRO_FD_[A-Z_]+", node.value)
    }


class TestOneReader:
    def test_only_settings_and_faults_read_the_environment(self):
        offenders = {}
        for path in sorted((SRC / "repro").rglob("*.py")):
            module = path.relative_to(SRC).as_posix()
            if module in READERS:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            lookups = _environ_lookups(tree)
            literals = _variable_literals(tree)
            if lookups or literals:
                offenders[module] = (lookups, sorted(literals))
        assert offenders == {}

    def test_the_eight_variables(self):
        names = set()
        for module in READERS:
            names |= _variable_literals(ast.parse((SRC / module).read_text()))
        expected = {name for name, _parse in VARIABLES.values()} | {faults.ENV_FAULTS}
        assert names == expected
        assert len(names) == 8
        assert "REPRO_FD_JOURNAL" not in names

    def test_guard_catches_a_stray_read(self):
        stray = ast.parse(
            'import os\nflag = os.environ.get("REPRO_FD_MEMPLANE")\n'
            "jobs = os.environ[ENV_JOBS]\n"
        )
        assert _environ_lookups(stray) == [2, 3]
        assert _variable_literals(stray) == {"REPRO_FD_MEMPLANE"}
