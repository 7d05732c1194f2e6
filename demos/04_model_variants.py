"""The three model variants on one dataset.

m1 keeps the fixed gamma base over precisions, m2 puts a gamma hyperprior
on that base's rate and draws the rate from its conjugate posterior given
the types every sweep, and m3 samples m1's model by the non-conjugate
algorithm: it opens clusters at auxiliary candidates drawn from the base
rather than through a closed-form marginal.

Takes under 10 seconds on two CPUs (m3 is the slowest, by a little).
Run:  python3 demos/04_model_variants.py
"""

from dpsc import (
    SamplerConfig,
    SynthConfig,
    extract_prediction,
    full_report,
    run_chains,
    standardize,
    synth_gaussian,
)

dataset = synth_gaussian(
    SynthConfig(
        n_train_classes=4, n_test_classes=3, dim=4,
        min_class_size=30, max_class_size=40, separation=4.0, seed=21,
    )
)
std, _ = standardize(dataset)
gold = std.gold_partition()
print(f"test portion: {gold.n_items} items, {gold.n_clusters} classes")

print(f"{'variant':<8} {'F':>6} {'NES':>6} {'NVI':>6} {'clusters':>9}")
for variant in ("m1", "m2", "m3"):
    config = SamplerConfig(
        variant=variant, iterations=1500, burn_in=750, n_chains=2, seed=2,
        resample_alphas=True,
    )
    prediction = extract_prediction(run_chains(std, config))
    rep = full_report(gold, prediction)
    print(
        f"{variant:<8} {rep.f_score:6.3f} {rep.nes:6.3f} {rep.nvi:6.3f} "
        f"{prediction.n_clusters:9d}"
    )
