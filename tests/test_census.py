"""Tests for the reachability census script (``docs/census.py``).

The full census runs every CI command under a profile hook and takes minutes,
so it has a CI job of its own.  These tests pin the parts that decide its
verdict: the function list, the hook, the KEPT check and the step runners.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_census():
    spec = importlib.util.spec_from_file_location("census", ROOT / "docs" / "census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census = _load_census()


@pytest.fixture(scope="module")
def functions() -> dict:
    return census.list_functions()


def _names(functions: dict) -> set[str]:
    return {name for name, _lines in functions.values()}


class TestKeptList:
    def test_every_kept_entry_names_a_defined_function(self, functions):
        missing = sorted(set(census.KEPT) - _names(functions))
        assert missing == []

    def test_every_kept_entry_gives_a_reason(self):
        assert all(reason.strip() for reason in census.KEPT.values())


class TestListFunctions:
    def test_keys_match_code_objects(self, functions):
        from repro.nand.address import AddressCodec
        from repro.ssd.stats import SimulationStats

        code = AddressCodec.encode_ppn.__code__
        assert functions[(code.co_filename, code.co_firstlineno)][0] == (
            "repro.nand.address:AddressCodec.encode_ppn"
        )
        # A decorated function starts at its first decorator, as its code does.
        code = SimulationStats.total_flash_reads.fget.__code__
        assert functions[(code.co_filename, code.co_firstlineno)][0] == (
            "repro.ssd.stats:SimulationStats.total_flash_reads"
        )

    def test_names_packages_methods_and_nested_functions(self, tmp_path, monkeypatch):
        package = tmp_path / "repro" / "pkg"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("def top():\n    return 1\n", encoding="utf-8")
        (package / "mod.py").write_text(
            "class Outer:\n"
            "    @staticmethod\n"
            "    def method():\n"
            "        def inner():\n"
            "            return 2\n"
            "        return inner()\n"
            "\n"
            "    class Inner:\n"
            "        async def run(self):\n"
            "            pass\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(census, "SOURCE", tmp_path / "repro")
        found = census.list_functions()
        mod = str(package / "mod.py")
        assert found == {
            (str(package / "__init__.py"), 1): ("repro.pkg:top", 2),
            (mod, 2): ("repro.pkg.mod:Outer.method", 5),
            (mod, 4): ("repro.pkg.mod:Outer.method.<locals>.inner", 2),
            (mod, 9): ("repro.pkg.mod:Outer.Inner.run", 2),
        }


def _probe() -> int:
    return 7


class TestHook:
    @staticmethod
    def _key(function) -> tuple[str, int]:
        return function.__code__.co_filename, function.__code__.co_firstlineno

    def test_records_only_what_runs_while_installed(self):
        hook = census.Hook()
        saved = sys.getprofile()
        hook.install()
        try:
            _probe()
        finally:
            hook.remove()
            sys.setprofile(saved)
        assert self._key(_probe) in hook.entered()
        assert self._key(_load_census) not in hook.entered()

    def test_records_threads_started_after_install(self):
        hook = census.Hook()
        saved = sys.getprofile()
        hook.install()
        try:
            worker = threading.Thread(target=_probe)
            worker.start()
            worker.join()
        finally:
            hook.remove()
            sys.setprofile(saved)
        assert self._key(_probe) in hook.entered()

    def test_remove_stops_recording(self):
        hook = census.Hook()
        saved = sys.getprofile()
        hook.install()
        hook.remove()
        sys.setprofile(saved)
        _probe()
        assert self._key(_probe) not in hook.entered()


class TestCheck:
    @pytest.fixture
    def kept(self, monkeypatch):
        monkeypatch.setattr(census, "KEPT", {"m:kept": "a reason"})

    def test_clean_when_only_kept_functions_are_unreached(self, kept):
        assert census.check({"m:kept": 3}, {"m:kept", "m:used"}) == []

    def test_flags_an_unreached_function_not_kept(self, kept):
        problems = census.check({"m:kept": 3, "m:dead": 5}, {"m:kept", "m:dead"})
        assert problems == ["unreached and not in KEPT: m:dead"]

    def test_flags_a_kept_entry_that_is_reached(self, kept):
        assert census.check({}, {"m:kept"}) == ["KEPT but reached: m:kept"]

    def test_flags_a_kept_entry_that_names_no_function(self, kept):
        assert census.check({}, {"m:used"}) == ["KEPT names no function: m:kept"]


class TestRunners:
    def test_cli_accepts_the_expected_exit_code(self, capsys):
        census.cli("--list")
        census.cli("fig19", "--scale", "tiny", "--metrics-window-us", 0, expect=2)
        capsys.readouterr()

    def test_cli_raises_on_another_exit_code(self, capsys):
        with pytest.raises(census.CommandFailed, match="exit 0, want 2"):
            census.cli("--list", expect=2)
        capsys.readouterr()

    def test_script_passes_argv_and_restores_it(self, tmp_path):
        target = tmp_path / "echo.py"
        out = tmp_path / "argv.txt"
        target.write_text(
            "import sys\n"
            "from pathlib import Path\n"
            "Path(sys.argv[2]).write_text(' '.join(sys.argv[1:]))\n",
            encoding="utf-8",
        )
        saved = list(sys.argv)
        census.script(target, "--n", out)
        assert out.read_text() == f"--n {out}"
        assert sys.argv == saved

    def test_script_raises_on_a_failing_exit(self, tmp_path):
        target = tmp_path / "fail.py"
        target.write_text("raise SystemExit(3)\n", encoding="utf-8")
        saved = list(sys.argv)
        with pytest.raises(census.CommandFailed, match="fail.py --x: exit 3"):
            census.script(target, "--x")
        assert sys.argv == saved

    def test_steps_have_unique_names(self):
        names = [name for name, _step in census.STEPS]
        assert len(names) == len(set(names))
        assert all(callable(step) for _name, step in census.STEPS)


class TestMain:
    def test_a_census_that_runs_nothing_fails(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "path", list(sys.path))
        monkeypatch.setattr(census, "STEPS", [("nothing", lambda: None)])
        saved = sys.getprofile()
        try:
            assert census.main(["--work-dir", str(tmp_path)]) == 1
        finally:
            sys.setprofile(saved)
        out, err = capsys.readouterr()
        assert "unreached and not in KEPT: repro.nand.address:AddressCodec.encode_ppn" in err
        assert "-- NOT KEPT" in out
        assert (tmp_path / "logs" / "nothing.log").exists()

    def test_a_step_that_replaces_the_hook_is_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "path", list(sys.path))
        monkeypatch.setattr(census, "STEPS", [("rogue", lambda: sys.setprofile(None))])
        saved = sys.getprofile()
        try:
            with pytest.raises(census.CommandFailed, match="step rogue replaced the profile hook"):
                census.main(["--work-dir", str(tmp_path)])
        finally:
            sys.setprofile(saved)
        capsys.readouterr()
