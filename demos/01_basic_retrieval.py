"""Walk through one private retrieval against colluding servers.

Four servers hold three files under a (4, 2) storage code.  The user
wants file 0 and no pair of servers may learn that.  This script builds
the query plan, runs a session, decodes, and checks the exact rate.
"""

import numpy as np

import coded_pir as cp

params = cp.SchemeParams(
    variant="prototype", n_servers=4, code_dim=2, n_files=3,
    desired=(0,), collusion_size=2, seed=2024,
)
plan = cp.build_plan(params)
layout = plan.layout  # the public scheme: codes, assisting array, blocks

print("pure/mixed ratio:", f"alpha={layout.ab.alpha}, beta={layout.ab.beta}")
print("rows per file:   ", plan.l_rows)
print("blocks:          ", len(layout.blocks))
print("queries:         ", len(layout.blocks) * layout.array.n_symbols, f"({layout.array.n_symbols} per block)")

print("\nassisting array (symbol ids per server):")
for n, column in enumerate(layout.array.columns):
    print(f"  server {n}: {list(column)}")

db = cp.database_for_plan(plan, seed=1)
transcript = cp.run_session(plan, db)
print("\ndownloaded symbols:", transcript.downloaded_symbols)

recovered = cp.reconstruct(plan, transcript)
assert np.array_equal(recovered[0], db.files[0])
print("recovered file 0 exactly:", True)

report = cp.rate_report(plan, transcript)
print(f"achieved rate {report.achieved} == closed form {report.closed_form}: {report.match}")

audits = cp.full_privacy_sweep(plan)
print(f"\nprivacy: {len(audits)} collusion pairs audited,",
      "all pass" if all(a.passed for a in audits) else "FAILURES")
print("each pair sees per-file ranks", audits[0].per_file_rank,
      f"inside a {plan.l_rows}-dimensional row space")
