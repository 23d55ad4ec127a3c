"""Certificates: replaying the composition argument, end to end.

The headline: a 2-connected, cubic, bipartite, planar graph on 72 vertices
whose maximum 3-vertex-path packing covers only 69 vertices, i.e.
lambda(N) = 23 < 24 = 72/3.  The certificate derives the no-factor fact
through six rule applications, cross-checks the small ones by exhaustive
search, and validates offline; a target search supplies the matching
23-path witness.  Swapping larger prisms into the same script yields an
infinite family (84, 96, ... vertices).
"""

import json

from lambdapack import Mode, PackingProblem, check_packing, solve
from lambdapack.certify import (
    certificate_to_json,
    check_certificate,
    replay_pipeline,
)
from lambdapack.pipeline import build_pipeline, family, family_script

print("=== replaying the default pipeline ===")
cert = replay_pipeline()
for step in cert.steps:
    name = cert.graph_names.get(step.conclusion.graph_hash, "?")
    extra = f" {step.evidence}" if step.evidence else ""
    print(f"  {step.step_id}: {step.rule:4s} {step.conclusion.kind} on {name}"
          f" (n={step.conclusion.n}){extra}")
print("final facts:",
      [(cert.graph_names[f.graph_hash], f.kind) for f in cert.final_facts])

print("\n=== the certificate validates offline ===")
text = certificate_to_json(cert)
print(f"certificate: {len(text)} bytes, valid = {check_certificate(text)}")

data = json.loads(text)
data["finalFacts"][-1]["n"] = 73
print("tampered copy valid =", check_certificate(data))

print("\n=== pinning lambda(N) = 23 ===")
n_graph = build_pipeline().graph("N")
lower = solve(PackingProblem(n_graph, Mode.MAX), target=23)
check_packing(PackingProblem(n_graph, Mode.MAX), lower.paths)
print(f"found a packing of {lower.value} disjoint paths "
      f"({3 * lower.value} of {n_graph.n} vertices covered)")
print("no factor exists (certified above), so lambda(N) = 23 <",
      n_graph.n // 3, "= floor(n/3)")

print("\n=== the infinite family ===")
for member in (0, 1, 2):
    fam_cert = replay_pipeline(family_script(member))
    finals = {fam_cert.graph_names[f.graph_hash]: f for f in fam_cert.final_facts}
    n_t = family(member).graph("N")
    print(f"member {member}: n = {n_t.n}, no-factor certified = "
          f"{check_certificate(fam_cert) and finals['N'].kind == 'no_factor'}")
print("done.")
