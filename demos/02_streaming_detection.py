"""Streaming detection on a vector autoregression, end to end.

Builds a reference sample from quiet history, calibrates the correction
constant on a held-out quiet trajectory, then monitors a stream whose
noise variance jumps from 0.1 to 0.35 at raw step 1000.  Also shows the
checkpoint/restore round trip: a detector resumed from JSON continues
bit-identically.

Run:  python3 demos/02_streaming_detection.py
"""

import numpy as np

from kcusum import (
    ArScenario,
    DetectorConfig,
    GaussianLaw,
    KernelCusumDetector,
    KernelSpec,
    build_reference,
    calibrate_correction,
    default_system_matrix,
    simulate_ar,
)

SEED = 42
WINDOW = 300
TAU = 1000


def main() -> None:
    kernel = KernelSpec.gaussian(2.0)
    matrix = default_system_matrix()
    quiet_noise = GaussianLaw.isotropic(4, 0.1)

    print("=== 1. Reference and calibration from quiet data ===")
    quiet = ArScenario(matrix=matrix, pre_noise=quiet_noise, length=2001)
    reference = build_reference(kernel, simulate_ar(quiet, seed=SEED, stream=0))
    holdout = simulate_ar(quiet, seed=SEED, stream=1)
    calibration = calibrate_correction(reference, holdout, WINDOW,
                                       margin=0.01, quantile=0.9)
    print(f"reference: {reference.n_pairs} lifted pairs")
    print(f"holdout discrepancy level {calibration.holdout_level:.5f} at "
          f"quantile 0.9 over {calibration.n_scores} window positions")
    print("(a sub-maximal quantile keeps one noisy stretch of the holdout")
    print(" from dictating the correction; the margin adds fixed slack)")
    print(f"correction c = level + margin = {calibration.correction:.5f}")

    print()
    print(f"=== 2. Monitoring a stream whose noise variance jumps at step {TAU} ===")
    scenario = ArScenario(matrix=matrix, pre_noise=quiet_noise,
                          post_noise=GaussianLaw.isotropic(4, 0.35),
                          change_at=TAU, length=2500)
    stream = simulate_ar(scenario, seed=SEED, stream=2)
    detector = KernelCusumDetector(
        reference,
        DetectorConfig(window=WINDOW, min_sample=10, threshold=5.0,
                       correction=calibration.correction))
    outcomes = detector.extend(stream)

    emitted = [o for o in outcomes if o.index is not None]
    scores = np.array([o.score for o in emitted])
    tau_stat = TAU - WINDOW  # statistic clock: change enters the buffer here
    print(f"first statistic after window + 1 = {WINDOW + 1} raw observations")
    print(f"mean score before the change: {scores[:tau_stat].mean():+.5f} "
          "(negative: CUSUM keeps resetting)")
    print(f"mean score after the change:  {scores[tau_stat:].mean():+.5f} "
          "(positive: CUSUM climbs)")
    if detector.alarmed_at is not None:
        n = detector.alarmed_at
        print(f"alarm at statistic index {n} = raw step {n + WINDOW}; "
              f"delay {n - tau_stat} statistics after the change entered the buffer")
    else:
        print("no alarm fired (unexpected for this scenario)")

    print()
    print("=== 3. Checkpoint and bit-identical resume ===")
    first_half, second_half = stream[:700], stream[700:]
    live = KernelCusumDetector(
        reference,
        DetectorConfig(window=WINDOW, min_sample=10, threshold=5.0,
                       correction=calibration.correction))
    live.extend(first_half)
    saved = live.checkpoint()
    restored = KernelCusumDetector.restore(reference, live.config, saved)
    tail_live = [o.statistic for o in live.extend(second_half)]
    tail_restored = [o.statistic for o in restored.extend(second_half)]
    print(f"checkpoint is {len(saved)} bytes of JSON (floats stored as hex)")
    print(f"resumed statistics identical: {tail_live == tail_restored}")


if __name__ == "__main__":
    main()
