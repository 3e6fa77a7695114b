"""Pinned SHA-256 digests of the files four small campaigns and a csv
trace write.

Scoring changes in this package are meant to keep every output bit for
bit, so these digests must not move.  A change that moves bits on
purpose (another summation order, say) re-pins them and says so in
``CHANGES.md``.  The digests were taken with numpy 2.4 on x86-64; a
numpy or libm whose ``exp`` rounds differently in the last bit can move
them too.
"""

import hashlib

import pytest

from kcusum import (
    DetectorConfig,
    KernelCusumDetector,
    KernelSpec,
    build_reference,
    parse_config_text,
    run_experiment,
    save_trajectory,
    stream_rng,
)

FINITE_MD = """
[scenario]
kind = finite
states = 0;1
change_at = 60
pre_matrix = 0.9,0.1;0.2,0.8
post_matrix = 0.8,0.2;0.2,0.8

[detector]
window = 20
min_sample = 10
threshold = 5.0
reference = 401
holdout = 800
bandwidths = 1
correction = calibrate
quantile = 0.5
margin = 0.005

[campaign]
mode = md
replications = 3
thresholds = 10,15,20
horizon_factor = 40
seed = 5

[output]
directory = out
formats = csv
"""

AR_MTBFA = """
[scenario]
kind = ar-variance
change_at = none

[detector]
window = 10
min_sample = 10
threshold = 5.0
reference = 101
holdout = 400
bandwidths = 0.1,1,10
correction = calibrate
quantile = 0.25
margin = 0.01

[campaign]
mode = mtbfa
replications = 3
thresholds = 1,2,4
horizon_factor = 50
seed = 5

[output]
directory = out
formats = csv
"""

CSV_TRACE = """
[scenario]
kind = csv
path = {path}

[detector]
window = 10
reference = 60
holdout = 40
bandwidths = 0.5,2
correction = calibrate
quantile = 0.9

[campaign]
mode = trace
thresholds = 1,3

[output]
formats = csv
"""

CSV_TRACE_DIGESTS = {
    "trace.csv": "5ffb6718bfa8b770e337aabe8574e127e274821f5fe3fd0879231a3dcbf888f9",
    "notes.txt": "ccfe173c9c96ac28c52a3b8be1785208d5593e112cff52c0276a605ef78b8936",
    "bounds.txt": "ed4e08e48e8b81097e8218670ebc305642071acef47fb877c3679fbcc55f8ca4",
}

# version 3 texts; ``tests/fixtures/checkpoint-v2-steady.json`` is the
# version 2 "steady" text, whose digest was e50f95c1...
CHECKPOINT_DIGESTS = {
    "warm-up": "319a73bb90704e7e2e7d40641bb3a691a1be3779d54e83f41706153a5e1c72b8",
    "steady": "883aa705d631d87117b13db00ae04c4551e4103b4ebbfd9e7218f48681d9fd5a",
}

PINNED = {
    "finite-md": (
        FINITE_MD,
        {
            "campaign.csv": "6c97aee0a4326e6d653ae01dcd6f3686d404d42de573b652e6194ec47c675a38",
            "notes.txt": "c5cd49f7db411292f6c2ee26b3863249b4d7c80afc896178e042a978409c72e9",
            "bounds.txt": "afab2a66f6ede0a0f808f9e440e871f8137570a92d773e5f4f32ee597c51e5ff",
        },
    ),
    "ar-mtbfa": (
        AR_MTBFA,
        {
            "campaign.csv": "0a9dd268eef1e1ae6973c0677517679d62b7ffece158fa9281e4b2738cef2d06",
            "notes.txt": "85e77ad5b07029a77226d700a6191e4fb63e6c468612d1f2ced6abdfff9c3012",
            "bounds.txt": "45935c3ef3af24a5d7a3380faa351496e40a616955414efffeb6bc62d9c5c615",
        },
    ),
    # [bounds] supplies the inputs: every one of them on an AR scenario,
    # and a certificate that overrides the finite chains' own
    "ar-mtbfa-bounds": (
        AR_MTBFA + "\n[bounds]\nlam = 0.3\nlag = 2\ngamma = 0.4\n",
        {
            "campaign.csv": "b65c955b14cc29ba802ddef18f283cc530329842c16ac8591533607ce391859b",
            "notes.txt": "85e77ad5b07029a77226d700a6191e4fb63e6c468612d1f2ced6abdfff9c3012",
            "bounds.txt": "e97ee2f190b67f9f7e474a3c932ceee78748466a4e26fd478b8ef44910da0baf",
        },
    ),
    "finite-md-bounds": (
        FINITE_MD + "\n[bounds]\nlam = 0.2\nlag = 3\n",
        {
            "campaign.csv": "6c97aee0a4326e6d653ae01dcd6f3686d404d42de573b652e6194ec47c675a38",
            "notes.txt": "c5cd49f7db411292f6c2ee26b3863249b4d7c80afc896178e042a978409c72e9",
            "bounds.txt": "5ca3c67db25e2f6c5efc9f872e38b141c372c432901644f7d7eeb51290d03145",
        },
    ),
}


def digests_of(directory, filenames) -> dict:
    return {
        filename: hashlib.sha256((directory / filename).read_bytes()).hexdigest()
        for filename in filenames
    }


@pytest.mark.parametrize("name", sorted(PINNED))
def test_campaign_outputs_keep_their_digests(tmp_path, name):
    text, digests = PINNED[name]
    run_experiment(parse_config_text(text), out_dir=str(tmp_path))
    assert digests_of(tmp_path, digests) == digests


def test_csv_trace_outputs_keep_their_digests(tmp_path):
    """200 rows whose last 60 have twice the scale: 60 reference, 40
    holdout and 100 monitored rows, with an alarm after the change."""
    data = stream_rng(11, 0).standard_normal((200, 2))
    data[140:] *= 2.0
    path = tmp_path / "data.csv"
    save_trajectory(data, path)
    out = tmp_path / "out"
    run_experiment(parse_config_text(CSV_TRACE.format(path=path)), out_dir=str(out))
    assert digests_of(out, CSV_TRACE_DIGESTS) == CSV_TRACE_DIGESTS


def test_checkpoint_texts_keep_their_digests():
    """Checkpoints of one detector while the CUSUM is still warming up
    (n < min_sample, statistic -inf) and in steady state."""
    data = stream_rng(12, 0).standard_normal((60, 2))
    reference = build_reference(KernelSpec.gaussian(1.0), data[:21])
    config = DetectorConfig(window=4, min_sample=6, threshold=50.0, correction=0.3)
    det = KernelCusumDetector(reference, config)
    texts = {}
    det.extend(data[21:29])
    assert det.n == 4
    texts["warm-up"] = det.checkpoint()
    det.extend(data[29:])
    assert det.n == 35
    texts["steady"] = det.checkpoint()
    got = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}
    assert got == CHECKPOINT_DIGESTS
