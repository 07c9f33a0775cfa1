"""Retrieval that survives a lying server.

Eight servers, one of which corrupts every answer it gives.  All
queries still arrive, but some decoded values are wrong; the atoms are
arranged on Reed-Solomon codewords with enough distance to locate and
repair every lie.  The sweep tries each possible liar with several
corruption draws.
"""

import numpy as np

import coded_pir as cp

params = cp.SchemeParams(
    variant="byzantine", n_servers=8, code_dim=2, n_files=2,
    desired=(0,), collusion_size=2, b_byzantine=1, seed=11,
)
plan = cp.build_plan(params)
layout = plan.layout
db = cp.database_for_plan(plan, seed=12)
print(f"alpha={layout.ab.alpha}, L={plan.l_rows}, blocks={len(layout.blocks)}")
print("interference code:", f"({layout.big_code.n}, {layout.big_code.k})",
      "-> corrects", (layout.big_code.n - layout.array.n_symbols - layout.big_code.k) // 2,
      "errors on its observed part")
print("per-block code:   ", f"({layout.small_code.n}, {layout.small_code.k})",
      "-> corrects", layout.small_code.max_errors, "errors per desired block")
print("closed-form rate: ", cp.closed_form_rate(params))

failures = 0
for liar in range(params.n_servers):
    for corruption_seed in range(3):
        adversary = cp.Adversary(byzantine_set=(liar,), seed=corruption_seed)
        transcript = cp.run_session(plan, db, adversary=adversary)
        recovered = cp.reconstruct(plan, transcript)
        if not np.array_equal(recovered[0], db.files[0]):
            failures += 1
print(f"\nswept 8 liars x 3 corruption draws: {failures} failures")

adversary = cp.Adversary(byzantine_set=(3,), seed=0)
record = cp.recovered_atoms(plan, cp.run_session(plan, db, adversary=adversary))
flags = list(record.flags[0].values())
print("desired-file atoms error-corrected:", flags.count("error-corrected"),
      f"(the liar touches 7 of 28 symbols in each of {plan.l_rows // layout.small_code.k} blocks)")
