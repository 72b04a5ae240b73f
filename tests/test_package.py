import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import meterfuse
from meterfuse.cli import main

SRC = str(Path(meterfuse.__file__).parents[1])
CHILD = Path(__file__).parents[1] / "perfbench" / "child.py"


def test_all_names_every_public_binding():
    namespace: dict = {}
    exec("from meterfuse import *", namespace)  # a name in __all__ but not bound fails here
    public = {
        name
        for name, value in vars(meterfuse).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(meterfuse.__all__) == public
    assert set(namespace) - {"__builtins__"} == public


def _fresh_python(script: str, *args: str) -> list:
    """Run script in a new interpreter on this checkout's sources; the JSON of its last line."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# The meterfuse modules in sys.modules, with whether each has been executed.
_MODULES = """
import json, sys, types
print(json.dumps({name: type(module) is types.ModuleType for name, module in sys.modules.items()
                  if name.startswith("meterfuse.")}))
"""


@pytest.mark.parametrize("command", [
    ["detect"],
    ["inject", "--kind", "gaussian"],
    ["evaluate", "--duration-ms", "7000"],
])
def test_single_series_commands_never_execute_the_other_modules(tmp_path, command):
    assert main(["synth", "--out", str(tmp_path / "c"), "--hist-points", "200"]) == 0
    argv = [*command, "--manifest", str(tmp_path / "c" / "manifest.json"),
            "--series", "HIST-44-S", "--out", str(tmp_path / "o")]
    script = "import sys\nfrom meterfuse.cli import main\nassert main(sys.argv[1:]) == 0\n" + _MODULES
    executed = _fresh_python(script, *argv)
    for name in ("dtw", "analysis", "sampling", "synth"):
        assert executed[f"meterfuse.{name}"] is False, name


def test_import_of_cli_registers_every_traced_module():
    # perfbench/child.py patches each LAYERS function in the module it finds
    # in sys.modules right after `import meterfuse.cli`.
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    registered = _fresh_python("import meterfuse.cli\n" + _MODULES)
    assert {module for module, _ in child.LAYERS} <= set(registered)
