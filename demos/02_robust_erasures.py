"""Retrieval that survives silent servers.

Six servers, one of which will simply not answer; the user does not
know which in advance.  Redundancy moves into the atoms: per desired
block only 10 of 15 values are needed, and the interference codeword
completes from whatever arrives.  Every choice of absent server is
swept below.
"""

import numpy as np

import coded_pir as cp

params = cp.SchemeParams(
    variant="robust", n_servers=6, code_dim=2, n_files=2,
    desired=(0,), collusion_size=2, s_robust=1, seed=5,
)
plan = cp.build_plan(params)
layout = plan.layout
db = cp.database_for_plan(plan, seed=6)
print(f"alpha={layout.ab.alpha}, L={plan.l_rows}, blocks={len(layout.blocks)}")
print("closed-form rate:", cp.closed_form_rate(params))

for absent in range(params.n_servers):
    adversary = cp.Adversary(robust_set=(absent,))
    transcript = cp.run_session(plan, db, adversary=adversary)
    recovered = cp.reconstruct(plan, transcript)
    ok = np.array_equal(recovered[0], db.files[0])
    rate = cp.achieved_rate(plan, transcript)
    print(f"server {absent} silent: downloaded {transcript.downloaded_symbols}, "
          f"rate {rate}, exact recovery {ok}")

# provenance: which atom values were read and which were completed
transcript = cp.run_session(plan, db, adversary=cp.Adversary(robust_set=(0,)))
record = cp.recovered_atoms(plan, transcript)
flags = list(record.flags[0].values())
print("\ndesired-file atoms read directly:   ", flags.count("direct"))
print("desired-file atoms erasure-completed:", flags.count("erasure-completed"))

# one more server lost than planned for: the decoder refuses loudly
transcript = cp.run_session(plan, db, adversary=cp.Adversary(robust_set=(0, 1)))
try:
    cp.reconstruct(plan, transcript)
except cp.DecodingFailure as exc:
    print("\ntwo servers silent ->", type(exc).__name__)
