"""Golden digests: small CLI runs must write byte-identical summary CSVs.

A change that only reorders work (caching, batching, skipping a repeated
evaluation) must leave these files unchanged.  A change that moves results
at the rounding level on purpose updates ``DIGESTS`` from a run of the new
code and states the largest relative difference of every moved CSV column.
Static ``cs`` is left out: its slot-1 estimate is a tie (one random probe
scores every grid point alike) that rounding breaks.
"""

import hashlib
import json

import pytest

from beamtrack import cli

# 24 trials in chunks of 10, so the reduction over chunks is covered too
COMMON = ["--seed", "11", "--trials", "24", "--slots", "100", "--jobs", "1"]
RUNS = {
    "static": ("recursive", "80211ad", "ls"),
    "dynamic": ("recursive", "80211ad", "ls", "cs"),  # sinusoidal trajectory
}
DIGESTS = {
    "static_recursive.csv": "5cbdef3dc294c56ece26be8831bebc66319d31d368f7f99baa943708818ff3b8",
    "static_80211ad.csv": "cff6b31b4ba983f02e5db46eec8e5ac5b98e2d5b785106b05bf807b240a6f971",
    "static_ls.csv": "37fc2269a594d99d403bebb05b86c8004cd279193eeb1c86433f2700e9f38909",
    "dynamic_recursive.csv": "f51c4f3f300a9176853deaca2e3b343a2d2b0a8059f9459258bf3cddacc84211",
    "dynamic_80211ad.csv": "35962b677c2736d3def4ca715a32a5e69543aa4394daefe461b4ab77025f2981",
    "dynamic_ls.csv": "69e00a02ba0b2fcd2757771e4bcc0042215542bdbb0626708e03748e2de8d252",
    "dynamic_cs.csv": "3b8bf507626b28d4bce1ec9df968582233b1e0fc3ed4634e3151a77bfaeccf75",
}


@pytest.mark.parametrize("command", sorted(RUNS))
def test_summary_csvs_match_golden_digests(command, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"chunk_size": 10}))
    algorithms = RUNS[command]
    argv = [
        command, *COMMON, "--algorithms", ",".join(algorithms),
        "--config", str(config), "--out", str(tmp_path / "out"),
    ]
    assert cli.main(argv) == 0
    capsys.readouterr()
    got = {}
    for alg in algorithms:
        name = f"{command}_{alg}.csv"
        got[name] = hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
    assert got == {name: DIGESTS[name] for name in got}
