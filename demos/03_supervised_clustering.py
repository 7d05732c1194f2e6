"""End-to-end supervised clustering on synthetic data.

Generates Gaussian classes where the test classes were never seen in
training, fits the conjugate model (variant m1), and compares the
predicted test partition against oracle k-means and the trivial
baselines, mirroring the usual results-table layout.

Takes a couple of minutes.  Run:  python3 demos/03_supervised_clustering.py
"""

from dpsc import (
    KMeansConfig,
    SamplerConfig,
    SynthConfig,
    coarse,
    extract_prediction,
    fine,
    full_report,
    kmeans,
    run_chains,
    standardize,
    synth_gaussian,
)

dataset = synth_gaussian(
    SynthConfig(
        n_train_classes=4, n_test_classes=3, dim=2,
        min_class_size=40, max_class_size=60, separation=5.0, seed=7,
    )
)
std, _ = standardize(dataset)
test_idx = std.indices("test")
test_ids = [std.ids[i] for i in test_idx]
gold = std.gold_partition()
print(f"{len(std.indices('train'))} training items in 4 classes; "
      f"{len(test_idx)} test items in {gold.n_clusters} unseen classes")

config = SamplerConfig(
    variant="m1", iterations=1500, burn_in=750, n_chains=2, seed=7,
    resample_alphas=True,
)
chains = run_chains(std, config)
prediction = extract_prediction(chains)
print(f"model prediction: {prediction.n_clusters} clusters "
      f"(best of {sum(len(c) for c in chains)} samples)")

oracle_k = gold.n_clusters
systems = {
    "coarse": coarse(test_ids),
    "fine": fine(test_ids),
    "k-means (oracle k)": kmeans(std.X[test_idx], KMeansConfig(k=oracle_k, seed=7), ids=test_ids),
    "dp model (m1)": prediction,
}

header = f"{'system':<20} {'RI':>6} {'P':>6} {'R':>6} {'F':>6} {'NES':>6} {'NVI':>6}"
print()
print(header)
print("-" * len(header))
for name, part in systems.items():
    rep = full_report(gold, part)
    print(
        f"{name:<20} {rep.rand_index:6.3f} {rep.precision:6.3f} {rep.recall:6.3f} "
        f"{rep.f_score:6.3f} {rep.nes:6.3f} {rep.nvi:6.3f}"
    )
