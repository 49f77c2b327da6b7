"""E3 — Figure 4: emulations under DP, DP/SP and DP/HP covariance factors.

The paper shows that emulated fields remain statistically consistent with
the simulations when the covariance Cholesky runs in the mixed-precision
variants.  This benchmark factorises the *same* fitted covariance with each
variant, generates emulations from each factor, and reports both the factor
accuracy and the field-level consistency diagnostics.
"""

import pytest

from benchmarks.conftest import print_table
from repro.core import ClimateEmulator, EmulatorConfig
from repro.linalg import MixedPrecisionCholesky
from repro.stats import consistency_report

VARIANTS = ("DP", "DP/SP", "DP/HP")


@pytest.mark.benchmark(group="fig4")
@pytest.mark.parametrize("variant", VARIANTS)
def test_fig4_emulation_across_precision_variants(benchmark, variant, bench_simulations):
    emulator = ClimateEmulator(
        EmulatorConfig(
            lmax=12, n_harmonics=2, var_order=2, tile_size=36,
            precision_variant=variant, covariance_jitter=1e-5, rho_grid=(0.5,),
        )
    )
    benchmark.pedantic(emulator.fit, args=(bench_simulations,), iterations=1, rounds=1)

    emulations = emulator.emulate(n_realizations=2, rng=3)
    report = consistency_report(bench_simulations, emulations, lmax=12)
    print_table(
        f"Fig. 4 — consistency of emulations with the {variant} factor",
        ["metric", "value"],
        [[k, f"{v:.4f}"] for k, v in report.as_dict().items()],
    )
    assert report.is_consistent(mean_tol_k=1.5, std_ratio_tol=0.3, ks_tol=0.2)


@pytest.mark.benchmark(group="fig4")
def test_fig4_factor_accuracy_vs_variant(benchmark, bench_covariance):
    """Factor error against the DP reference grows DP < DP/SP < DP/HP."""
    reference = MixedPrecisionCholesky(tile_size=36, variant="DP", jitter=1e-5).factorize(
        bench_covariance
    )

    def factor_all():
        return {
            v: MixedPrecisionCholesky(tile_size=36, variant=v, jitter=1e-5).factorize(
                bench_covariance
            )
            for v in VARIANTS
        }

    results = benchmark(factor_all)
    rows = []
    errors = {}
    for variant, result in results.items():
        err = result.factor_error(reference.lower())
        recon = result.relative_error(bench_covariance)
        errors[variant] = err
        rows.append([variant, f"{err:.3e}", f"{recon:.3e}",
                     f"{result.storage_bytes / result.dense_bytes:.3f}"])
    print_table(
        "Fig. 4 — factor accuracy and storage vs precision variant",
        ["variant", "factor err vs DP", "||LL^T-U||/||U||", "tiled bytes / dense bytes"],
        rows,
    )
    assert errors["DP"] < 1e-12
    assert errors["DP"] < errors["DP/SP"] < errors["DP/HP"] < 0.1
