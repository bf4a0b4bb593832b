"""Import layering: the model modules load without the engine, the
config parser or PyYAML."""

import ast
import os
import subprocess
import sys

from conftest import REPO_ROOT

MODEL_MODULES = ("fold", "thermal", "auction", "bidding", "hierarchy", "frequency", "spectral", "report")


def test_model_modules_load_without_the_engine_or_yaml():
    # a None entry in sys.modules makes any import of PyYAML raise ImportError
    code = (
        "import sys\n"
        "sys.modules['yaml'] = None\n"
        f"for name in {MODEL_MODULES!r}:\n"
        "    __import__('tgsim.' + name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'tgsim'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(ast.literal_eval(done.stdout))
    assert "tgsim.engine" not in loaded and "tgsim.config" not in loaded
    assert loaded == {"tgsim"} | {f"tgsim.{name}" for name in MODEL_MODULES}

