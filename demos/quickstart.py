"""End-to-end walkthrough: generate data, train two variants, compare rollouts.

Runs in a couple of minutes on CPU. Outputs land in demos/out/quickstart.
"""

from pathlib import Path

import numpy as np

from latact import evaluate as ev
from latact.training import make_config, train_scar
from latact.worldgen import DGPSpec, generate_dataset

OUT = Path(__file__).parent / "out" / "quickstart"
OUT.mkdir(parents=True, exist_ok=True)

print("generating a multi-embodiment dataset (10 target / 40 per source episodes)")
spec = DGPSpec()
dataset = generate_dataset(0, spec, m_target=10, source_count=40)

desk = dict(steps=600, lr_idm=1e-3, lr_fdm=2e-4, lr_disc=1e-3, seed=0)
models = {}
for variant in ("scar-kl-grl", "shared-latent"):
    print(f"training {variant} ...")
    models[variant], rows = train_scar(dataset, make_config(variant, **desk),
                                       log_path=OUT / f"{variant}.csv")
    tail = np.mean([r["L_rec"] for r in rows[-50:]])
    print(f"  final L_rec (50-step tail): {tail:.4f}")

print("evaluating rollouts on held-out target and transfer tasks")
tables = ev.run_transfer_eval(models, spec, seed=0, n_episodes=10,
                             target_e=dataset.target_e)
print(f"{'method':>14} {'task':>9} {'SSIM':>7} {'PSNR':>7} {'MSE':>9}")
for method, tasks in tables.items():
    for task in ("target", "transfer"):
        c = tasks[task]
        print(f"{method:>14} {task:>9} {c['ssim']:7.4f} {c['psnr']:7.2f} "
              f"{c['mse']:9.6f}")

print("\nprobing latents for embodiment information")
for variant, model in models.items():
    z, u, e = ev.latents_with_ground_truth(model, dataset)
    rep = ev.latent_recovery_score(z, u, e, seed=0)
    print(f"{variant:>14}: embodiment-probe accuracy {rep['probe_accuracy']:.3f} "
          f"(chance 0.25), I(e;z) lower bound {rep['mi_lower_bound']:.3f} nats")
