"""Kernels, pair lifting, and the discrepancy statistic.

Walks through the building blocks everything else uses: a bounded
Gaussian-mixture kernel, the lifting of a trajectory into consecutive
transition pairs, and the kernel mean discrepancy between two samples,
checked against the exact population value for finite-state chains.

Run:  python3 demos/01_kernel_discrepancy.py
"""

import numpy as np

from kcusum import (
    FiniteChain,
    KernelSpec,
    exact_mmd_finite,
    lift,
    mmd,
    mmd_squared,
    simulate_finite,
)


def main() -> None:
    print("=== 1. A bounded kernel ===")
    kernel = KernelSpec.mixture([0.5, 1.0, 2.0])
    x = np.array([0.3, -1.2])
    y = np.array([0.1, -0.7])
    print(f"mixture of bandwidths {[float(s) for s in kernel.bandwidths]} "
          f"with weights {[round(float(w), 4) for w in kernel.weights]}")
    print(f"k(x, x) = {kernel.eval(x, x)}   (always exactly 1)")
    print(f"k(x, y) = {kernel.eval(x, y):.6f}   (always in (0, 1])")

    print()
    print("=== 2. Lifting a trajectory to transition pairs ===")
    path = np.array([[0.0], [1.0], [0.0], [0.0], [1.0]])
    pairs = lift(path)
    print(f"trajectory of {path.shape[0]} observations -> "
          f"{pairs.shape[0]} pairs of dimension {pairs.shape[1]}")
    print(f"first pair {pairs[0]} is path[0] = {path[0]} followed by "
          f"path[1] = {path[1]}")
    print("the detector compares *pair* distributions, so it can react to a")
    print("change in the dynamics even when the marginal law is unchanged.")

    print()
    print("=== 3. Discrepancy between two samples ===")
    rng = np.random.default_rng(7)
    sample_a = rng.normal(size=(300, 2))
    sample_b = rng.normal(size=(300, 2)) + 0.4
    same = rng.normal(size=(300, 2))
    print(f"shifted laws:   mmd^2 = {mmd_squared(kernel, sample_a, sample_b):.6f}")
    print(f"identical laws: mmd^2 = {mmd_squared(kernel, sample_a, same):.6f}"
          "   (small, but positive: finite-sample bias)")

    print()
    print("=== 4. Exact population value for finite chains ===")
    states = np.arange(3.0)[:, None]
    forward = FiniteChain(states=states,
                          matrix=np.array([[0.0, 0.8, 0.2],
                                           [0.2, 0.0, 0.8],
                                           [0.8, 0.2, 0.0]]))
    reverse = FiniteChain(states=states, matrix=forward.matrix.T.copy())
    gamma = exact_mmd_finite(kernel, forward, reverse)
    print(f"two 3-state cycles with the same stationary law: gamma = {gamma:.6f}")
    print("(the helper enumerates the stationary *pair* laws, so the raw")
    print(" chains go in; it is the population value of the estimator below)")

    estimates = [
        mmd(kernel, lift(simulate_finite(forward, 2001, seed=7, stream=2 * i)),
            lift(simulate_finite(reverse, 2001, seed=7, stream=2 * i + 1)))
        for i in range(20)
    ]
    mean = float(np.mean(estimates))
    sem = float(np.std(estimates, ddof=1) / np.sqrt(len(estimates)))
    print(f"Monte Carlo mean over 20 paired trajectories of 2000 transitions: "
          f"{mean:.6f} +- {sem:.6f}")
    print("long trajectories agree with the exact value to within one")
    print("standard error; on the short windows the detector actually uses,")
    print("the estimate sits above the population value on average, and that")
    print("excess is exactly what the correction constant absorbs.")


if __name__ == "__main__":
    main()
