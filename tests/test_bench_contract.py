"""The benchmark's tracer wraps effnum names by module and attribute.

A refactor that renames or deletes one of them should fail here rather
than crash the traced benchmark run.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from conftest import FIXTURES, fresh_env

TRACING = pathlib.Path(__file__).parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracing().TARGETS


@pytest.mark.parametrize("span", sorted(TARGETS))
def test_target_resolves(span):
    module, attrs = TARGETS[span]
    owner = importlib.import_module(f"effnum.{module}")
    for attr in (attrs,) if isinstance(attrs, str) else attrs:
        target = getattr(owner, attr)
        # capitalised targets are classes, wrapped at __init__; the rest are functions
        assert isinstance(target, type) == attr[0].isupper(), attr
        assert callable(target)


# Run in a fresh interpreter that has only imported effnum.cli, so most
# target modules are still lazy stand-ins when the recorder is installed.
TRACER_PROBE = """
import importlib.util, inspect, json, sys, types
import effnum.cli

spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

lazy = sorted(name for name, module in sys.modules.items()
              if name.startswith("effnum.") and type(module) is not types.ModuleType)
modules = [m for name, m in sys.modules.items() if name == "effnum" or name.startswith("effnum.")]

def traced(value):
    return getattr(value, "__qualname__", "").startswith("Recorder._wrap.")

def bindings():
    # every module attribute that holds a tracer wrapper, and every wrapped __init__
    held = [(m.__name__, key) for m in modules for key, value in vars(m).items() if traced(value)]
    inits = [m.__name__ + "." + key for m in modules for key, value in vars(m).items()
             if inspect.isclass(value) and traced(value.__init__)]
    return held, inits

recorder = tracing.Recorder()
recorder.install()
unwrapped = []
for span, (module, attrs) in tracing.TARGETS.items():
    for attr in (attrs,) if isinstance(attrs, str) else attrs:
        value = getattr(sys.modules["effnum." + module], attr)
        if not traced(value.__init__ if isinstance(value, type) else value):
            unwrapped.append(span + ":" + attr)
installed = bindings()
recorder.uninstall()
print(json.dumps({"lazy": lazy, "unwrapped": unwrapped, "installed": bool(installed[0]),
                  "left": bindings()}))
"""


def test_tracer_installs_over_lazily_loaded_modules():
    out = subprocess.run([sys.executable, "-c", TRACER_PROBE, str(TRACING)], env=fresh_env(),
                         capture_output=True, text=True, check=True).stdout
    report = json.loads(out)
    assert "effnum.continuum" in report["lazy"]  # install meets unloaded modules
    assert report["unwrapped"] == [] and report["installed"]
    assert report["left"] == [[], []]  # uninstall restored every binding


# The recorder's spans and counters for one `simulate` job of two runs, in a
# fresh interpreter, and the bindings left after uninstall.
SIMULATE_PROBE = """
import contextlib, importlib.util, inspect, io, json, sys
import effnum.cli

spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

recorder = tracing.Recorder()
recorder.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = effnum.cli.main(["simulate", "state_p525.json", "dec_singletons3.json",
                            "--trials", "1000,5000", "--seed", "3"])
recorder.uninstall()
modules = [m for name, m in sys.modules.items() if name == "effnum" or name.startswith("effnum.")]
traced = lambda value: getattr(value, "__qualname__", "").startswith("Recorder._wrap.")
left = [m.__name__ + "." + key for m in modules for key, value in vars(m).items()
        if traced(value) or inspect.isclass(value) and traced(value.__init__)]
summary = recorder.summary()
print(json.dumps({"code": code, "calls": {k: v["calls"] for k, v in summary.items()},
                  "counts": recorder.counts, "left": left}))
"""


def test_simulate_runs_through_the_traced_sampler_and_estimator():
    out = subprocess.run([sys.executable, "-c", SIMULATE_PROBE, str(TRACING)], env=fresh_env(),
                         cwd=FIXTURES, capture_output=True, text=True, check=True).stdout
    report = json.loads(out)
    assert report["code"] == 0
    assert report["calls"]["simulate.sample_outcomes"] == 2
    assert report["counts"]["simulate.sample_outcomes.trials"] == 6000
    assert report["calls"]["simulate.plugin_mu_estimate"] == 2
    assert report["counts"]["simulate.plugin_mu_estimate.replicas"] == 400
    assert report["left"] == []
