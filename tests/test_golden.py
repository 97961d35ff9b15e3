"""Golden digests: small CLI runs must write byte-identical files, and
small engine runs must return byte-identical arrays.

A change that only reorders work (caching, batching, skipping a repeated
evaluation) must leave these files unchanged.  A change that moves results
at the rounding level on purpose updates the digests from a run of the new
code and states the largest relative difference of every moved CSV column.
Static ``cs`` is left out of the CLI files: its slot-1 estimate is a tie
(one random probe scores every grid point alike) that rounding breaks.

``ENGINE_DIGESTS`` hash the raw bytes of every ``RunSummary`` array, so they
pin the last bit that the 12-digit CSVs round away.  They are the bytes of
one host (x86-64, numpy 2.4.6); another numpy or CPU may round differently.

Run this file as a script to print every digest of the current tree, in the
layout of the dicts below:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

import beamtrack
from beamtrack import RunConfig, cli, run_experiment
from beamtrack.scenarios import TRAJECTORIES

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


def _main(argv) -> str:
    """Run the CLI on ``argv``; returns its stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert cli.main(argv) == 0
    return stdout.getvalue()


def _summary_digests(command: str, tmp: Path) -> dict:
    """The digest of every summary CSV of ``RUNS[command]``, run in ``tmp``."""
    config = tmp / "config.json"
    config.write_text(json.dumps({"chunk_size": 10}))
    algorithms = RUNS[command]
    _main([
        command, *COMMON, "--algorithms", ",".join(algorithms),
        "--config", str(config), "--out", str(tmp / "out"),
    ])
    return {
        f"{command}_{alg}.csv": _sha256((tmp / "out" / f"{command}_{alg}.csv").read_bytes())
        for alg in algorithms
    }


@pytest.mark.parametrize("command", sorted(RUNS))
def test_summary_csvs_match_golden_digests(command, tmp_path):
    got = _summary_digests(command, tmp_path)
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


def _cli_digests(run: str, tmp: Path) -> dict:
    """The digest of every file ``CLI_RUNS[run]`` writes in ``tmp``, of its
    stdout and of its ``run.json``."""
    out = tmp / "out"
    got = {"stdout": _sha256(_main([*CLI_RUNS[run], "--out", str(out)]).encode())}
    manifest = json.loads((out / "run.json").read_text())
    written = {path.name for path in out.iterdir()} - {"run.json"}
    assert sorted(manifest["outputs"]) == sorted(written)
    for name in written:
        got[name] = _sha256((out / name).read_bytes())
    got["run.json"] = _sha256(json.dumps(manifest, sort_keys=True).encode())
    return got


@pytest.mark.parametrize("run", sorted(CLI_RUNS))
def test_every_cli_output_matches_golden_digests(run, tmp_path):
    assert _cli_digests(run, tmp_path) == CLI_DIGESTS[run]


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


# small engine runs of every trajectory on the full 16-antenna array and on
# 8 and 5 tracking antennas: recursive from each init, and every other
# algorithm the tracking array accepts; 20 trials in chunks of 7, so the
# reduction over chunks is covered too
ENGINE_COMMON = dict(slots=150, omega=0.02, trials=20, chunk_size=7, seed=3)


def _engine_digests(trajectory: str) -> dict:
    """The digest of every ``RunSummary`` of ``trajectory``'s engine runs,
    over the bytes of each of its fields, the trace's arrays included."""
    got = {}
    for track in (None, 8, 5):
        for init in ("sweep", "uniform"):
            others = ("80211ad", "cs") if track else ("80211ad", "ls", "cs")
            algorithms = ("recursive", *others) if init == "sweep" else ("recursive",)
            cfg = RunConfig(
                trajectory=trajectory, track_antennas=track, init=init,
                algorithms=algorithms, **ENGINE_COMMON,
            )
            for name, summary in run_experiment(cfg).items():
                label = f"recursive-{init}" if name == "recursive" else name
                got[f"m{track or 16}-{label}"] = _sha256(_summary_bytes(summary))
    return got


# compressed sensing alone on more arrays: the full 16-, 8- and 32-antenna
# arrays and 16 antennas tracking on 8, at two seeds; 24 trials in chunks of 7
CS_COMMON = dict(slots=120, omega=0.02, trials=24, chunk_size=7, algorithms=("cs",))
ENGINE_RUNS = (*TRAJECTORIES, *(f"cs-{kind}" for kind in TRAJECTORIES))


def _cs_digests(trajectory: str) -> dict:
    """The digest of each ``cs`` ``RunSummary`` of ``trajectory``, over the
    same bytes as ``_engine_digests``."""
    got = {}
    for m, track in ((16, None), (8, None), (32, None), (16, 8)):
        for seed in (0, 1):
            cfg = RunConfig(
                trajectory=trajectory, num_antennas=m, track_antennas=track, seed=seed,
                **CS_COMMON,
            )
            summary = run_experiment(cfg)["cs"]
            got[f"m{m}-t{track or m}-seed{seed}"] = _sha256(_summary_bytes(summary))
    return got


def _run_digests(run: str) -> dict:
    kind = run.removeprefix("cs-")
    return _engine_digests(kind) if kind == run else _cs_digests(kind)


def _summary_bytes(value) -> bytes:
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return b"".join(_summary_bytes(getattr(value, f.name)) for f in fields)
    return np.asarray(value).tobytes()


ENGINE_DIGESTS = {
    "static": {
        "m16-80211ad":
            "405507b878edded61a07d4da96768a4b95444fa46b2d1531c99fce157aac43a9",
        "m16-cs":
            "f5e5b02f8d2300772dcd8420e87bc4bba9ed596e2e501969d8942f6be0663640",
        "m16-ls":
            "6e4be406b5ce6e27b8e7924d9f742ec7b0901f4d31719b49d893de8156a859d4",
        "m16-recursive-sweep":
            "c99c70a772d5491b469f1662cb05a2f137d4a9496cd092fd8f3efa9ffc195f63",
        "m16-recursive-uniform":
            "8ec1f35b60d60df56305482acf68acf5d6803d3a881c22b1832b6dd50b86554b",
        "m5-80211ad":
            "6603666cf6b00fd86491f86ed0039d7ecc5740802a869dc66e91a642bb4e13d3",
        "m5-cs":
            "5d3f06f0e879189bd850334be74afffd0753660226010bb92696286b152a78ec",
        "m5-recursive-sweep":
            "1a59f4969f76871542dd18a6ae5ed25d2be65dcd6357d0ff7c285251f98c789e",
        "m5-recursive-uniform":
            "fdb594b642dffa257a89f9be2b5a5e127253a0d921b8410e162be83f4cafe899",
        "m8-80211ad":
            "70ccbebe00ecf1ae5d2aa435f1e23e00336d94b94dbcc29a6b43d7e5cb1031c8",
        "m8-cs":
            "949e27876c81ee6da300e5ed2b411567f4a2592669ba5956afc307ec37950a02",
        "m8-recursive-sweep":
            "0c3ed04c311f4ec4f001f98c124100c50cf120eb601efa180a92e2bdd521d170",
        "m8-recursive-uniform":
            "f6287fcf64c4f6fc916b71af272c57fd7d7396d00dd5f6d0d7790f0f9b029565",
    },
    "sinusoidal": {
        "m16-80211ad":
            "906b44049bbf96798e1c5198cab1005fd1669c9b5d708d27dce43a7a568b9179",
        "m16-cs":
            "f56cbd07fbad70905362d6d306f0da8c81e1d683dedb03673b0e841c6d6867f2",
        "m16-ls":
            "3fd1d63703ad9a0aff87bfca135bf52c106a2a671a171a9a27f9292a1a80a253",
        "m16-recursive-sweep":
            "fe9efbaf9a94132995c6cb287a54184ec8e17fece693bf4fecdbf2d9dbb76c75",
        "m16-recursive-uniform":
            "11acdc2c07562e386fcd6dd9c15875663675289f3e499a91274b62071dd7f8fb",
        "m5-80211ad":
            "ebbddd05e92f53aa0c8bd69b3642ce7091f8ef4bb96d31005c1166f949878c60",
        "m5-cs":
            "3521352c6e04c2e107e3865e884516bdccb9dd7e3590d08531605ad263e660ff",
        "m5-recursive-sweep":
            "be0f63728646ef9c89271958fd37f076abfec7af7b3368b19f9b58540279a36c",
        "m5-recursive-uniform":
            "f1eb31c6066039c5261b454c7f14ebcecc37bed45c5f922ed254289ff24415c2",
        "m8-80211ad":
            "93ec5ec117755dea8cb4746c0abe15527b55078b99e37682e8cc195334728cf1",
        "m8-cs":
            "d93e16263febd47f1cedab999fa8a785f32911853f370716045f08e5d5ba9b8f",
        "m8-recursive-sweep":
            "7300d2a13e9712de9367ef2a42d3a6db8bf15daeb6386aa569e8e5bfc3ab359c",
        "m8-recursive-uniform":
            "e610949c9a775b6380a0a34b537136aa2a5cfe47c80e1c2372bf19d47b8d830c",
    },
    "fixed-velocity": {
        "m16-80211ad":
            "b45cc6f48cf01f64a40488f12cb2d2af94029c30460cca7f6e0a768338c29913",
        "m16-cs":
            "38aba7be8131e3d3450bba966bb5c96d38910f8aa798151df3300786f0a8c604",
        "m16-ls":
            "2f1d1bb21c105a94fdc67c9effc1b2a9922765b220c16e8fbc9328f69ca20061",
        "m16-recursive-sweep":
            "e3a3a871eddb86c5d4ee25329408a0ad976911595816b7a7b5c11b118d5cf192",
        "m16-recursive-uniform":
            "673b7e8cad91a658afec5f296c0da32c3a6bdfbbce057203683d953bba766716",
        "m5-80211ad":
            "e186c426d10cd1185b845ade61f68ffeff49bb3ea2f9ef760644242632039c22",
        "m5-cs":
            "0e6509409b8dc0d90acde205003b99d31d55914f58462b282e82a2f20e15667b",
        "m5-recursive-sweep":
            "ec4a3991e33085ce4eedb2e8fc804f119ece23a4a4d63774c339b0e6c8b7a434",
        "m5-recursive-uniform":
            "04268d1165be9cfee626e658a8104b026426b71bc306a7dcb5a995dc156fb5db",
        "m8-80211ad":
            "13c6d91977a3377c5fa79d80e678f081473f30c8ac9fadc082cbc0008677f3f1",
        "m8-cs":
            "e0ebd727f295aead0e6010e0abdf7ed804ada60fc07c3d6a402922f63feb422f",
        "m8-recursive-sweep":
            "cab3bae86508e7a9f81d03e3b0cf4dd012d4347767d73016779e9c2faa9a8161",
        "m8-recursive-uniform":
            "81d2ccadcc8297222b7b605a523dd8edb05c114691533c89dca90dc26bea615e",
    },
    "cs-static": {
        "m16-t16-seed0":
            "f08b29316740c0fee3a12ad9b1745ce6656c79e8cf91705ffd76d3651984a730",
        "m16-t16-seed1":
            "2c44a7e653429978bd07d6dc2e512fed3c102c857dc9b7be86c08359cbece5e0",
        "m16-t8-seed0":
            "84b922d24e8036ae71f9c520ff25f0ed4265fc9642a9fc39340331a4da0dbdb1",
        "m16-t8-seed1":
            "ab427ca674004d51b1d14516de6f3f06c12b79b2064728a23586980ecf306b1f",
        "m32-t32-seed0":
            "81ef018b1a91ab13aeec020c122fdc7bef7bef6863d4fc6ee8c7309183e9d695",
        "m32-t32-seed1":
            "289e79f5b2e492e0af0dd27fb6dd6c7a4f1b968d1177c1d251c80923d65b6a5d",
        "m8-t8-seed0":
            "fbf69206104f8f77fb2ebd343bb9c27c02ce0acb68248d1330b5517ba503dcfa",
        "m8-t8-seed1":
            "0baf19b4facb17b9be2501a3b1c50f5e4cbba35c1c69626294e8a47d2ea0919a",
    },
    "cs-sinusoidal": {
        "m16-t16-seed0":
            "210fed60d8b996743652c1b49fb07d58e1294b3cf50ddda4511eb996a51b8a9b",
        "m16-t16-seed1":
            "28a5dcba8f2449934407db4bd3325824564a41a52cb3c92d557968c6e005c46c",
        "m16-t8-seed0":
            "646114208aadaa18738906b605a52fe736cf7df26ff13784ba162b03151486b7",
        "m16-t8-seed1":
            "8a36268a65236429496e0374c75e086fb129c1fdbc53ec0de86ef84ed3c879c8",
        "m32-t32-seed0":
            "d514fb977461c075f631f9a42f15cd6c601f5267718f12c52bdc62a41c86e04c",
        "m32-t32-seed1":
            "affa2f340e2ae11cc43878e1ec2f72a13b89761f4c94196809639fdf3b1687d7",
        "m8-t8-seed0":
            "8ca9ad5cce5bbd3d30017a0b2f7811a0324fd5e2a8ebde5e8df7e14ffdcd9745",
        "m8-t8-seed1":
            "0d23664cf3753209cbfe6e4a9defafff63122cf656b8f503e2cef92988500fb6",
    },
    "cs-fixed-velocity": {
        "m16-t16-seed0":
            "c51db99af9e3606b4a662d2b091fecc34e6a73e4770efd719b88f5efe53274f5",
        "m16-t16-seed1":
            "28a468da5deda4623e1ad560f2da36ed77ea6107b8ebfa64d49dbcd7c47c4e0c",
        "m16-t8-seed0":
            "74d42859a9881407feae9132543226295006cad87de4f0f7f7b2da09ca4fc101",
        "m16-t8-seed1":
            "cd8fb762f2323194849dce27a7caf89e8e0430e62512cf6936b3b7be39287b8d",
        "m32-t32-seed0":
            "fee926443353c57eedd3c90a586376d5aaadd231a73c47f0fbec9bf053a3299d",
        "m32-t32-seed1":
            "ecc11ba12c8467f86241e7d2583dd971698d0256f1f509069b79688afb97cef2",
        "m8-t8-seed0":
            "4568720851861b9d0877ed6771712dc2b531a5fc44543030d706516c0d5854fd",
        "m8-t8-seed1":
            "c5f51187dcb4a03dc84ed2f21a2fdfe6edfda834eb443b3b7bd6cb7479819944",
    },
}

@pytest.mark.parametrize("run", ENGINE_RUNS)
def test_engine_arrays_match_golden_digests(run):
    assert _run_digests(run) == ENGINE_DIGESTS[run]


# the benchmark in perfbench/ imports its modules by name from its own folder
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_outputs_match_recorded_references(tmp_path, monkeypatch, capsys):
    """Every workload's CLI calls at seed 1 write summary CSVs whose values
    match ``perfbench/reference`` to the benchmark's rtol of 1e-9, compared
    as the benchmark's own output check compares them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    outcheck, workloads = map(importlib.import_module, ("outcheck", "workloads"))
    problems = []
    for name, workload in workloads.WORKLOADS.items():
        reference = outcheck.load_reference(name, 1)
        for call in workloads.calls(workload, 1):
            out = tmp_path / name / call.algorithm
            assert cli.main([*call.argv, "--out", str(out)]) == 0
            csv = f"{workload.subcommand[0]}_{call.algorithm}.csv"
            got = outcheck.against_reference((out / csv).read_text(), reference["summary"][csv])
            problems += [f"{name} {csv}: {problem}" for problem in got]
    assert problems == []


# the package exports what a subcommand runs; the pilot model, the scalar
# steering vector and substream, the Fisher information of an arbitrary probe
# and the scalar replays live in tests/reference.py
PUBLIC_NAMES = [
    "ALGORITHMS", "ArrayGeometry", "RngPlan", "RunConfig", "RunSummary", "TrialRecord",
    "alpha_star", "array_kernel_polar", "arraymodel", "channel_mse_limit",
    "crlb_min", "dft_codebook", "generate", "h_prime_norm_sq", "harness", "i_max",
    "initialization_hit_rate", "mainlobe_halfwidth", "run_experiment", "run_single_trial",
    "scenarios", "sine_grid", "stable_point_spacing", "stable_points", "steering_matrix",
    "surrogate_f",
]


def test_public_names():
    assert sorted(beamtrack.__all__) == PUBLIC_NAMES


def _print_digests(name: str, digests: dict) -> None:
    print(f"{name} = {{")
    for key, value in digests.items():
        if isinstance(value, dict):
            print(f'    "{key}": {{')
            for file, digest in sorted(value.items()):
                print(f'        "{file}":\n            "{digest}",')
            print("    },")
        else:
            print(f'    "{key}": "{value}",')
    print("}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        def fresh() -> Path:
            return Path(tempfile.mkdtemp(dir=tmp))

        digests = {}
        for command in RUNS:
            digests.update(_summary_digests(command, fresh()))
        _print_digests("DIGESTS", digests)
        _print_digests("CLI_DIGESTS", {run: _cli_digests(run, fresh()) for run in sorted(CLI_RUNS)})
    _print_digests("ENGINE_DIGESTS", {run: _run_digests(run) for run in ENGINE_RUNS})
