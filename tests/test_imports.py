"""What a run loads: `import hierbandit` loads no module that only Bernoulli
math, LAPACK, the process pool or XML escaping would need.  A Gaussian run
whose policies never factor a precision never loads scipy.linalg; a run that
does binds scipy's own LAPACK routines into hierbandit._linalg, and a
Bernoulli run binds scipy.special's own ufuncs into hierbandit.bernoulli.

Each check runs in a fresh interpreter, since this test process has
imported everything already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# scipy itself imports email and concurrent.futures (via importlib.metadata),
# so those are not listed.
NOT_LOADED = ("scipy.special", "multiprocessing", "concurrent.futures.process",
              "xml.sax", "urllib.request", "http.client", "ssl")

_PRELUDE = """
import json, sys, tempfile

NOT_LOADED = %r
LAPACK = ("scipy.linalg",)
report = {}

def loaded(names):
    return [name for name in names if name in sys.modules]

import hierbandit
from hierbandit import _linalg, bench, bernoulli
report["import"] = loaded(NOT_LOADED + LAPACK)

def run(population, algorithms, plots):
    config = bench.ExperimentConfig.from_dict({
        "population": dict({"n_tasks": 3, "horizon": 4, "n_arms": 2,
                            "dim": 3}, **population),
        "schedule": "concurrent", "algorithms": algorithms, "seeds": 2,
        "emit_mtr": True, "plots": plots, "parallelism": 1})
    with tempfile.TemporaryDirectory() as out:
        bench.run_experiment(config, out)
""" % (NOT_LOADED,)

_GAUSSIAN = _PRELUDE + """
run({}, ["individual-ts", "pooled-ts", "oracle-ts", "meta-ts"], True)
run({}, [{"name": "oracle-ts", "options": {"align": True}}], False)
report["count_run"] = loaded(NOT_LOADED + LAPACK)

run({}, ["hier-ts", "hier-ts-batch", "individual-ts", "pooled-ts",
         "linear-ts", "meta-ts"], True)
report["gaussian_run"] = loaded(NOT_LOADED)

bench._WRITER_MIN_ROWS = 0  # a serial run of any size forks its writer
run({}, ["individual-ts", "pooled-ts"], False)
report["writer_run"] = loaded(NOT_LOADED)
import scipy.linalg
report["lapack_bound"] = (
    _linalg.dpotrf is scipy.linalg.lapack.dpotrf
    and _linalg.dtrtrs is scipy.linalg.lapack.dtrtrs
    and _linalg.dpotrs is scipy.linalg.lapack.dpotrs)
print(json.dumps(report))
"""

_BERNOULLI = _PRELUDE + """
run({"reward_kind": "bernoulli"}, ["hier-ts", "meta-ts"], False)
report["bernoulli_run"] = loaded(LAPACK)
import scipy.special
report["bernoulli_binds_ufuncs"] = (
    bernoulli.expit is scipy.special.expit
    and bernoulli.betaln is scipy.special.betaln)
print(json.dumps(report))
"""

# Each entry point makes the first LAPACK call of a fresh interpreter
# (`got`), and must equal the same algebra done by direct scipy.linalg
# calls (`want`) bit for bit.
_ENTRY_POINTS = {
    "sample_mvn_precision": """
m = rng.standard_normal((5, 5))
a, b = m @ m.T + 5.0 * np.eye(5), rng.standard_normal(5)
got = [_linalg.sample_mvn_precision(a, b, np.random.default_rng(1))]
import scipy.linalg as sla
z = np.random.default_rng(1).standard_normal(5)
lower, _ = sla.lapack.dpotrf(a, lower=1)
w, _ = sla.lapack.dtrtrs(lower, b, lower=1)
want = [sla.lapack.dtrtrs(lower, w + z, lower=1, trans=1)[0]]
""",
    "conditional_stats_update": """
m = rng.standard_normal((4, 4))
sd, mean0 = m @ m.T / 4 + 0.1 * np.eye(4), rng.standard_normal(4)
counts, sums = np.array([3.0, 0.0, 1.0, 2.0]), rng.standard_normal(4)
got = list(gaussian.conditional_stats_update(mean0, sd, 0.7, counts, sums))
import scipy.linalg as sla
pulled = np.array([0, 2, 3])
rows = sd[pulled]
s = rows[:, pulled]
s.flat[::4] += 0.7 ** 2 / counts[pulled]
gain = sla.lapack.dpotrs(np.linalg.cholesky(s), rows, lower=1)[0].T
want = [mean0 + gain @ (sums[pulled] / counts[pulled] - mean0[pulled]),
        sd - gain @ rows]
""",
    "posterior_theta": """
from hierbandit.core import FeatureMap, HierarchyConfig, History, \\
    InteractionRecord
fm = FeatureMap.indicator_with_metadata(
    2, 3, task_metadata={0: rng.standard_normal(2), 1: rng.standard_normal(2)})
m = rng.standard_normal((3, 3))
cfg = HierarchyConfig(mu_theta=rng.standard_normal(3),
                      sigma_theta=m @ m.T / 3 + 0.5 * np.eye(3),
                      sigma_delta=0.5 * np.eye(2), sigma_noise=0.8)
h = History(InteractionRecord(t % 2, t % 3 // 2, float(r), t // 2 + 1)
            for t, r in enumerate(rng.standard_normal(6)))
post = gaussian.posterior_theta(cfg, fm, h)
got = [post.mean, post.cov]
import scipy.linalg as sla
ws = gaussian.KernelWorkspace(cfg, fm, h)
eye = np.eye(3)
inner = sla.cho_solve((np.linalg.cholesky(cfg.sigma_theta), True), eye) \\
    + ws.phi_vinv_phi
cov = sla.cho_solve((np.linalg.cholesky(0.5 * (inner + inner.T)), True), eye)
cov = 0.5 * (cov + cov.T)
want = [cfg.mu_theta + cov @ ws.phi_vinv_resid, cov]
""",
}

_ENTRY = """
import json, sys
import numpy as np
from hierbandit import _linalg, gaussian
rng = np.random.default_rng(11)
loaded_before = "scipy.linalg" in sys.modules
%s
print(json.dumps({
    "loaded_before": loaded_before,
    "bound": _linalg.dpotrf is sla.lapack.dpotrf
             and _linalg.dpotrs is sla.lapack.dpotrs,
    "equal": [g.tobytes() == w.tobytes() for g, w in zip(got, want)]}))
"""


def _report(script: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_gaussian_run_loads_no_bernoulli_pool_or_xml_module():
    report = _report(_GAUSSIAN)
    assert report["import"] == []
    # The count policies and the oracle never factor a precision.
    assert report["count_run"] == []
    assert report["gaussian_run"] == []
    # The serial run's forked ledger writer uses no pool module either.
    assert report["writer_run"] == []
    # No loader is left on the draw path: after the first LAPACK call all
    # three names are scipy's own routines.
    assert report["lapack_bound"] is True


def test_bernoulli_run_loads_no_lapack_and_binds_scipy_ufuncs():
    report = _report(_BERNOULLI)
    assert report["import"] == []
    assert report["bernoulli_run"] == []
    # No per-call import is left on the chain's path: after the first
    # Bernoulli call both names are scipy's ufuncs.
    assert report["bernoulli_binds_ufuncs"] is True


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_first_lapack_call_matches_scipy_bitwise(entry):
    report = _report(_ENTRY % _ENTRY_POINTS[entry])
    assert report["loaded_before"] is False
    assert report["bound"] is True
    assert report["equal"] and all(report["equal"])
