"""What a run loads: a Gaussian run imports no module that only Bernoulli
math, the process pool or XML escaping would need, and a Bernoulli run
binds scipy.special's own ufuncs into hierbandit.bernoulli.

The checks run in one fresh interpreter, since this test process has
imported everything already."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# scipy itself imports email and concurrent.futures (via importlib.metadata),
# so those are not listed.
NOT_LOADED = ("scipy.special", "multiprocessing", "concurrent.futures.process",
              "xml.sax", "urllib.request", "http.client", "ssl")

_SCRIPT = """
import json, sys, tempfile

NOT_LOADED = %r
report = {}

def loaded():
    return [name for name in NOT_LOADED if name in sys.modules]

import hierbandit
from hierbandit import bench, bernoulli
report["import"] = loaded()

def run(population, algorithms, plots):
    config = bench.ExperimentConfig.from_dict({
        "population": dict({"n_tasks": 3, "horizon": 4, "n_arms": 2,
                            "dim": 3}, **population),
        "schedule": "concurrent", "algorithms": algorithms, "seeds": 2,
        "emit_mtr": True, "plots": plots, "parallelism": 1})
    with tempfile.TemporaryDirectory() as out:
        bench.run_experiment(config, out)

run({}, ["hier-ts", "hier-ts-batch", "individual-ts", "pooled-ts",
         "linear-ts", "meta-ts"], True)
report["gaussian_run"] = loaded()

run({"reward_kind": "bernoulli"}, ["hier-ts", "meta-ts"], False)
import scipy.special
report["bernoulli_binds_ufuncs"] = (
    bernoulli.expit is scipy.special.expit
    and bernoulli.betaln is scipy.special.betaln)
print(json.dumps(report))
""" % (NOT_LOADED,)


def test_gaussian_run_loads_no_bernoulli_pool_or_xml_module():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["import"] == []
    assert report["gaussian_run"] == []
    # No per-call import is left on the chain's path: after the first
    # Bernoulli call both names are scipy's ufuncs.
    assert report["bernoulli_binds_ufuncs"] is True
