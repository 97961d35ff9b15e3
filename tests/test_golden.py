"""Golden digests: small CLI runs must write byte-identical files.

A change that only reorders work (caching, batching, skipping a repeated
evaluation) must leave these files unchanged.  A change that moves results
at the rounding level on purpose updates the digests from a run of the new
code and states the largest relative difference of every moved CSV column.
Static ``cs`` is left out: its slot-1 estimate is a tie (one random probe
scores every grid point alike) that rounding breaks.
"""

import hashlib
import json

import pytest

import beamtrack
from beamtrack import cli

# 24 trials in chunks of 10, so the reduction over chunks is covered too
COMMON = ["--seed", "11", "--trials", "24", "--slots", "100", "--jobs", "1"]
RUNS = {
    "static": ("recursive", "80211ad", "ls"),
    "dynamic": ("recursive", "80211ad", "ls", "cs"),  # sinusoidal trajectory
}
DIGESTS = {
    "static_recursive.csv": "519ba919cada3b8e366b78adb6ff824dc2721bb587c2d6511e161408cb9a2a34",
    "static_80211ad.csv": "e1ab241d47af0efc3d09c33f4dc0ef9525efdafcee5c94e377e0c2374546f209",
    "static_ls.csv": "6a1498c118d2b5a135f3685769e70e13a259c7be5f2a6e74ed8ed1c3f8a43cac",
    "dynamic_recursive.csv": "6ad0f36ecd853f1251d1ecf1495f7fc23f023cb3afb2425b4318e8cfac349d75",
    "dynamic_80211ad.csv": "b4a28b5738366a1c38308aedcbb0001565d14254b46fe986dd169d26aedcfcc0",
    "dynamic_ls.csv": "a7813777df944ce32eb79f08aba550ca36062b8a5b321791300c640146b0a9f9",
    "dynamic_cs.csv": "be59ce0431608685b573f1e32deb9e906482c6de671adf25b20660b96eb4db42",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
        got[name] = _sha256((tmp_path / "out" / name).read_bytes())
    assert got == {name: DIGESTS[name] for name in got}


# one small run per subcommand, a few seconds in all
SMALL = ["--seed", "5", "--trials", "6", "--slots", "40", "--jobs", "1"]
CLI_RUNS = {
    "static": ["static", *SMALL, "--algorithms", "recursive,80211ad,ls"],
    "dynamic-sinusoidal": ["dynamic", *SMALL],
    "dynamic-fixed-velocity": [
        "dynamic", *SMALL, "--trajectory", "fixed-velocity", "--omega", "0.02",
        "--algorithms", "recursive,cs",
    ],
    # the tracking-subarray paths: each tracker's pilot on 8 of the 16 antennas
    "static-subarray": [
        "static", *SMALL, "--track-antennas", "8", "--algorithms", "recursive,80211ad",
    ],
    "dynamic-subarray": [
        "dynamic", *SMALL, "--trajectory", "fixed-velocity", "--omega", "0.02",
        "--track-antennas", "8", "--algorithms", "recursive,80211ad,cs",
    ],
    "sweep-speed": ["sweep-speed", *SMALL, "--omega-grid", "0.01,0.1"],
    "crlb": ["crlb", "--antennas", "8", "--snr-db", "5"],
    "analyze-stable-points": [
        "analyze-stable-points", "--antennas", "8", "--x", "0.3", "--samples", "101",
    ],
    "init-quality": [
        "init-quality", "--trials", "200", "--seed", "2", "--snr-grid", "0,10",
        "--m0-factors", "1,2",
    ],
}
# every file a run writes, its stdout, and its run.json
CLI_DIGESTS = {
    "analyze-stable-points": {
        "run.json":
            "ed01df3be366b24333addb9d7d5d12eab8881c7ce0b88f594af254c1ff27089b",
        "stable_points.csv":
            "574260a65567ebedb17571507d5cd71fe7f968a2654cd882dc37faffc03e5ac4",
        "stable_points.gp":
            "120ebdbed20de0a7900d6e9b4e6692680ddf4e0e8b60fe7779f310d9c11fc8f5",
        "stable_points_curve.csv":
            "323ed8ec46bcd67dc5a8994506f2ec4c3ee47bd563495b9c354c3de19ac14da4",
        "stdout":
            "9165709b503301bdf7a56eb7bce77aee0c2bbf1122428e7915007abe90682c04",
    },
    "crlb": {
        "crlb.csv":
            "65abef0418cce6e58502a8a2970d79dd22b53c3c7fd969a2da8d1ad5cdf9c11e",
        "run.json":
            "bc9670113db8600d050ca9547bbf91de2f1339d867ec4b83c01494b3fdb00396",
        "stdout":
            "1eeb58b4978883f321bd2d48b6c2f5d6a7d9e30dd64d2e44b8af83ae6901500b",
    },
    "dynamic-fixed-velocity": {
        "dynamic_cs.csv":
            "74f243b5f44aa36800eb88b99ed8952cb4098c7874abce70df93bd1837b136ba",
        "dynamic_rate.gp":
            "32c4cd37372520461d448517dc64163e6e1d844ba75ca67618d35e33a64848ed",
        "dynamic_recursive.csv":
            "57388763ed9eaa22fca771c14baccffdc95a9e6185145847f44e203547a9d60a",
        "dynamic_trace_cs.csv":
            "17e5d93f2249c9562ad59caa5603aa09a45b25f8b8bc2c0cff1d4797f38f555f",
        "dynamic_trace_recursive.csv":
            "de90c5ab53660c2ce2941210916d8a4ab8f65cf20a875456d2e40fc0060aef92",
        "dynamic_tracking.gp":
            "5942ea0a1e607c06264c32f525725aba05227561a8b95b9a8a52e30ec40fd876",
        "run.json":
            "b87a0d06850be2470951d038400d23f6fc44e3d793065261bb1fec3015f7c19b",
        "stdout":
            "8e1235d156720ed8f88965619aa9b10e137b739a57a0ac39b172e05fd8dbfe58",
    },
    "dynamic-sinusoidal": {
        "dynamic_80211ad.csv":
            "44a9ee607a5c7e42edfaaf7dacc658f24f21fbd4de5aea07ebbd12645c4b8d51",
        "dynamic_cs.csv":
            "4b97428a388da07438f384fbdb0c8052daf68d27e2735890aa9590399312863b",
        "dynamic_ls.csv":
            "585657799162f7db141422094ca63813b9cd3164076612e2012fa931d7b46187",
        "dynamic_rate.gp":
            "ffc14b2af553627e5adc6375ceb9d2b05773d80521f1eb0b310281fbccbd8f83",
        "dynamic_recursive.csv":
            "eed99ae97e8097c08d9f537a201bd9bd4f8a3cc70986925cd769675c374cd0b5",
        "dynamic_trace_80211ad.csv":
            "b0f0af37d53ba6e05799e049274b8feaa0a92d14528761b6750f09f4b96ef92b",
        "dynamic_trace_cs.csv":
            "22ba55f1bf7fbcd0e4ccf1d559855ba6ae4b3ee285db970a59101e2f17209dd6",
        "dynamic_trace_ls.csv":
            "c99f0f1d3903f8e1ff89d7c2afaa104d7a5a7a5b07fd24072f0e0f0ef92a68e1",
        "dynamic_trace_recursive.csv":
            "bf6b6e5a71eb257d822ff796f90c086a1cf8a4d29965101a01aab8c4bdb924bb",
        "dynamic_tracking.gp":
            "6466818e1ad2d987004ae3b1e2c76b031d2e123ea160d1eecc0a6fb17c2beb3c",
        "run.json":
            "5056ba112d19b9aa921b55694f99ceee74a93b8edcc7f8098595bd88cdfafa20",
        "stdout":
            "f192d7fc74bd3b501c6ae15de68358be79341226a768bed5779d5e7a16946563",
    },
    "dynamic-subarray": {
        "dynamic_80211ad.csv":
            "3ac1be00f079052edd6218c118ccc73254f121165add988d5710b2ff9e976c36",
        "dynamic_cs.csv":
            "16727f14592ca3a920c18be92b125038b49921d203790e0bc85cd4084a55b2c8",
        "dynamic_rate.gp":
            "d13dab5e08affc5f0b3d388f34ab02660cf9e6c027957d9ba93fa0e16e75823f",
        "dynamic_recursive.csv":
            "3a9cb972c7a7578d8b67c120888d97c2a94bbdc953ec8b759909c951d8d156e1",
        "dynamic_trace_80211ad.csv":
            "cbd18eb9c967002321898d5b110293ad16abf169c47cdf0b84da982dbb807261",
        "dynamic_trace_cs.csv":
            "806b93e69f8f445507bc6206beba9816f82e0f21e97cd4b3748e7b2199a8c714",
        "dynamic_trace_recursive.csv":
            "ec094ce9e41cb95e19db442727ddd36e6f8482a017612602caeb1058a937fac6",
        "dynamic_tracking.gp":
            "6466818e1ad2d987004ae3b1e2c76b031d2e123ea160d1eecc0a6fb17c2beb3c",
        "run.json":
            "2aa7ff7598cdf57e85818e27abc2bd47b868c944a70eaef4e36eb3b474814ec7",
        "stdout":
            "42f21c328d5b433ce869da8aa66fabb7a65d470e11fb80a51a6d2e3838db0527",
    },
    "init-quality": {
        "init_quality.csv":
            "e683083eef587299de2ba6453a9b4b057816d07808b2d9a957093c1ff370a3e8",
        "init_quality.gp":
            "07cbad4391167612672981e8937c2f051410aab4a9b4d2d609fd897660b1538b",
        "run.json":
            "e08932c24b14f81b16e2548aab8a6d18b7d86e3c5bfe99e91b4e2af6938c9693",
        "stdout":
            "88e50387ce9d5a387adb94f386bfd8bdcdc0d7ecc86c91e82a9c18dc5f91102d",
    },
    "static": {
        "run.json":
            "1ba67766846d3a7d34801e8991392b68a739cbef9135933cebfc029ec6ef5346",
        "static_80211ad.csv":
            "870a3a41abbbe05888c264a180332fcd770ebf7bd26d9ba64a02075b1d714b7c",
        "static_ls.csv":
            "7d343c7bf16f2b92f34817159055f81b06b0312df07078156a99ffe821d47326",
        "static_mse.gp":
            "44d85602eea5fde2df5a48ae5917cffde9087ab02c85d4734bf9666af090cf22",
        "static_recursive.csv":
            "c06fc92c682bd9978145b355e21ded1ef060c16b3a4891107eb7ce2e83f08f2c",
        "stdout":
            "5cdee646d23bad60f7cc23295f8789c2b007a724e4e17ed320ff33478dacc36e",
    },
    "static-subarray": {
        "run.json":
            "1c2899def2f15e936871d83d90a316fe3876ed38a62afa8896fa9159c0471d41",
        "static_80211ad.csv":
            "4098921c6cf355f154e250b95b1519a64c9fd18e94b8ac85a74268e41700252e",
        "static_mse.gp":
            "b470abedf858e16adfee0ab4dd27323bf551644d33bc0333d0bae1d3700c600b",
        "static_recursive.csv":
            "3d1d3f4bd47dd87117aa42d701eb7ef5e0aa3b262182f49788e58ced9d1f8e81",
        "stdout":
            "98e6beab20a69538f77db899a30db8846cb5418af933cbcfe459f37cd41c966d",
    },
    "sweep-speed": {
        "run.json":
            "3b4faabe5771d86d4cac3004d558f15274de953aac125a84437bb09de81870d3",
        "stdout":
            "f93a55967cd662ba5dc547180a68a00207e69c3c71e4d6fc74b178ec20a50f9a",
        "sweep_80211ad.csv":
            "34bfa5ba59cc9822506bd03a3c87b7fb03e0add57de6fbf73de94f3d221dd475",
        "sweep_cs.csv":
            "cbe4727a6807a3a3df4921ed3c866b8ffe4c972299f7cd578faff9c27e7764f9",
        "sweep_ls.csv":
            "4799c018d19efdcd0cded8801cdf471e93d654666969f9851f23ada6f1c2b0a9",
        "sweep_mse.gp":
            "838b6492fd7c29699a5fc27a02120913286714344044069d05e8929ab6f360f6",
        "sweep_rate.gp":
            "ad18cadd46c5e49822a9b7eac4e965e7d274e1bf7048af6f9215f2e720db14f0",
        "sweep_recursive_m16.csv":
            "d7ebd4b866d665f8f4050a11e7afe45d596477599203f1d2db49fd71e39feb29",
        "sweep_recursive_m4.csv":
            "ecaed1bc60fb916550587579dfb0bddc309c8c57a2e2bdb3edd77300b0ae825a",
        "sweep_recursive_m8.csv":
            "8d9594a46fb8753857effd70c04b23555b1bfbef6b08079f08a1f580cff12aed",
    },
}


@pytest.mark.parametrize("run", sorted(CLI_RUNS))
def test_every_cli_output_matches_golden_digests(run, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main([*CLI_RUNS[run], "--out", str(out)]) == 0
    got = {"stdout": _sha256(capsys.readouterr().out.encode())}
    manifest = json.loads((out / "run.json").read_text())
    written = {path.name for path in out.iterdir()} - {"run.json"}
    assert sorted(manifest["outputs"]) == sorted(written)
    for name in written:
        got[name] = _sha256((out / name).read_bytes())
    got["run.json"] = _sha256(json.dumps(manifest, sort_keys=True).encode())
    assert got == CLI_DIGESTS[run]


@pytest.mark.parametrize("run", sorted(CLI_RUNS))
def test_run_json_config_replays_the_run(run, tmp_path, capsys):
    """``run.json``'s config, passed back as ``--config``, reruns the same
    experiment: the same files, byte for byte, stdout and manifest."""
    first, again = tmp_path / "first", tmp_path / "again"
    assert cli.main([*CLI_RUNS[run], "--out", str(first)]) == 0
    stdout = capsys.readouterr().out
    manifest = json.loads((first / "run.json").read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps(manifest["config"]))
    assert cli.main([CLI_RUNS[run][0], "--config", str(config), "--out", str(again)]) == 0
    assert capsys.readouterr().out == stdout
    assert json.loads((again / "run.json").read_text()) == manifest
    for name in manifest["outputs"]:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


# the package exports what a subcommand runs; the pilot model, the scalar
# steering vector and substream, the Fisher information of an arbitrary probe
# and the scalar replays live in tests/reference.py
PUBLIC_NAMES = [
    "ALGORITHMS", "ArrayGeometry", "RngPlan", "RunConfig", "RunSummary", "TrialRecord",
    "alpha_star", "array_kernel", "array_kernel_polar", "arraymodel", "channel_mse_limit",
    "crlb_min", "dft_codebook", "generate", "h_prime_norm_sq", "harness", "i_max",
    "initialization_hit_rate", "mainlobe_halfwidth", "run_experiment", "run_single_trial",
    "scenarios", "sine_grid", "stable_point_spacing", "stable_points", "steering_matrix",
    "surrogate_f",
]


def test_public_names():
    assert sorted(beamtrack.__all__) == PUBLIC_NAMES
