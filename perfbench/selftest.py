#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Each check must pass on a right output from finexp and fire on a
deliberately wrong one: a shifted delta, a non-stochastic witness, an
increasing trace, and so on.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Prints one line per case and exits 1 if any check misses its fault.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

results: list[bool] = []


def expect(label: str, problems: list[str], fires: bool, containing: str = "") -> None:
    """Record whether the check fired (with a problem naming ``containing``) as it should."""
    ok = any(containing in p for p in problems) == fires
    results.append(ok)
    verdict = f"fires ({problems[0]})" if problems else "passes"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")


def wrong_column(matrix, factor: float = 1.5) -> np.ndarray:
    m = np.array(matrix, dtype=float)
    m[:, 0] *= factor
    return m


def main() -> int:
    import finexp.cli

    rng = np.random.default_rng(7)

    # value: brute force over deterministic rules, and the rule attains it
    kernel = workloads.kernel_matrix(rng, 3, 3)
    prior = rng.dirichlet(np.ones(3))
    loss = rng.uniform(-1, 1, size=(3, 2))
    theta, xs, acts = (finexp.FiniteSpace.of_size(n, p) for n, p in ((3, "t"), (3, "x"), (2, "a")))
    fx = (finexp.LossMatrix(theta, acts, loss), finexp.Distribution(theta, prior),
          finexp.MarkovKernel(theta, xs, kernel))
    v = finexp.value(*fx)
    rule = [int(np.argmax(c)) for c in finexp.bayes_decision_rule(*fx).matrix.T]
    expect("value right", checks.value(v, rule, kernel, prior, loss), False)
    expect("value shifted by 0.01", checks.value(v + 0.01, rule, kernel, prior, loss), True)
    expect("value with a wrong rule", checks.value(v, [1 - a for a in rule], kernel, prior, loss), True, "rule")

    # deficiency: witness residual is an upper bound equal to delta, value gaps a lower one
    inst = workloads.cap_instance(7, 0, n=6)
    f, s, p = inst.first.matrix, inst.second.matrix, inst.prior.mass
    w = finexp.weighted_directed_deficiency(inst.first, inst.second, inst.prior)
    sup = finexp.directed_deficiency(inst.first, inst.second)
    expect("weighted delta right", checks.deficiency_upper(w.delta, f, s, w.witness.matrix, p)
           + checks.deficiency_lower(w.delta, f, s, [p], inst.losses), False)
    expect("sup delta right", checks.deficiency_upper(sup.delta, f, s, sup.witness.matrix)
           + checks.deficiency_lower(sup.delta, f, s, [p, *np.eye(6)], inst.losses), False)
    expect("weighted delta shifted by 1e-3", checks.deficiency_upper(w.delta + 1e-3, f, s, w.witness.matrix, p), True)
    expect("sup delta shifted by -1e-3", checks.deficiency_upper(sup.delta - 1e-3, f, s, sup.witness.matrix), True)
    expect("non-stochastic witness", checks.deficiency_upper(w.delta, f, s, wrong_column(w.witness.matrix), p),
           True, "column summing")
    negative = np.array(w.witness.matrix)
    negative[:, 0] = 0.0
    negative[:2, 0] = (-0.5, 1.5)
    expect("negative witness entry", checks.deficiency_upper(w.delta, f, s, negative, p), True, "negative")
    blind, ident = np.full((6, 6), 1 / 6), np.eye(6)
    expect("delta below a sampled value gap", checks.deficiency_lower(0.0, blind, ident, [p], inst.losses), True)
    g = finexp.weighted_directed_deficiency(inst.first, inst.garbled, inst.prior)
    expect("garbling right", checks.garbling(g.delta), False)
    expect("garbling delta 0.1", checks.garbling(0.1), True)
    expect("sup below weighted", checks.sup_at_least_weighted(w.delta - 0.01, w.delta), True)
    expect("sup at least weighted", checks.sup_at_least_weighted(sup.delta, w.delta), False)

    # autoencode and stack
    px = inst.data_priors[0]
    ae = finexp.autoencode(px, 3)
    enc, dec = ae.encoder.matrix, ae.decoder.matrix
    expect("autoencode right", checks.autoencode(ae.epsilon, enc, dec, px.mass), False)
    expect("autoencode epsilon shifted", checks.autoencode(ae.epsilon + 0.05, enc, dec, px.mass), True)
    floor = 2.0 * (1.0 - np.sort(px.mass)[::-1][:3].sum())
    expect("autoencode beats the k-code floor", checks.autoencode(floor - 0.05, enc, dec, px.mass), True, "floor")
    expect("non-stochastic encoder", checks.autoencode(ae.epsilon, wrong_column(enc), dec, px.mass), True)
    chain = finexp.stack(px, [4, 2])
    layers = [k.matrix for k in chain.layers]
    expect("stack right", checks.stack(chain.total_quality, chain.layer_quality, layers, px.mass), False)
    expect("stack total shifted", checks.stack(chain.total_quality - 0.05, chain.layer_quality, layers, px.mass), True)
    expect("stack total above the layer sum",
           checks.stack(chain.total_quality, [e / 4 - 0.01 for e in chain.layer_quality], layers, px.mass),
           True, "layer sum")

    # ib
    loss_m, beta, seed = inst.ib_problems[0]
    state = finexp.ib_learn(loss_m, inst.prior, inst.first, latent_size=3, beta=beta, seed=seed)
    trace = list(state.objective_trace)
    outs = (state.encoder.matrix, state.centroid_posteriors.matrix, state.latent_prior.mass)
    distortion = finexp.ib_distortion(state, loss_m, inst.prior, inst.first)
    expect("ib right", checks.ib(trace, distortion, *outs), False)
    expect("ib increasing trace", checks.ib(trace + [trace[-1] + 1e-3], distortion, *outs), True, "rises")
    expect("ib negative distortion", checks.ib(trace, -1e-3, *outs), True, "negative")
    expect("ib non-stochastic encoder", checks.ib(trace, distortion, wrong_column(outs[0]), *outs[1:]), True)

    # verify
    reports = finexp.run_all(trials=2, seed=0, max_dim=3)
    payload = {"suites": [r.to_jsonable() for r in reports], "all_pass": all(r.passed for r in reports)}
    expect("verify right", checks.verify(payload, 0, 2), False)
    expect("verify exit code 1", checks.verify(payload, 1, 2), True, "exit code")
    expect("verify all_pass false", checks.verify({**payload, "all_pass": False}, 0, 2), True, "all_pass")
    expect("verify missing suite", checks.verify({**payload, "suites": payload["suites"][1:]}, 0, 2), True, "missing")
    expect("verify wrong check count", checks.verify(payload, 0, 3), True, "checks")

    # the CLI outputs, through the same dispatch the cli_cold workload uses
    doc = workloads.sample_doc()
    losses = workloads.cli_losses(0)
    outputs, raw = {}, {}
    for name, sub in workloads.cli_calls(0).items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = finexp.cli.main(workloads.cli_argv(sub))
        raw[name] = buf.getvalue().encode()
        outputs[name] = json.loads(raw[name])
        expect(f"cli {name} right (exit {code})", workloads.check_cli_output(
            name, sub, outputs[name], doc, losses, outputs.get("deficiency")), False)
    calls = workloads.cli_calls(0)
    bad = {**outputs["deficiency"], "delta": outputs["deficiency"]["delta"] + 0.1}
    expect("cli deficiency delta shifted", workloads.check_cli_output("deficiency", calls["deficiency"], bad, doc, losses, None), True)
    bad = {**outputs["deficiency"], "factors_through": not outputs["deficiency"]["factors_through"]}
    expect("cli factors_through flipped", workloads.check_cli_output("deficiency", calls["deficiency"], bad, doc, losses, None), True)
    bad = {**outputs["stack"], "bound_holds": False}
    expect("cli stack bound_holds false", workloads.check_cli_output("stack", calls["stack"], bad, doc, losses, None), True)
    expect("identical bytes", checks.same_bytes(raw["value"], raw["value"]), False)
    expect("different bytes", checks.same_bytes(raw["value"], raw["value"].replace(b"}", b" }")), True)

    missed = results.count(False)
    print(f"{len(results) - missed}/{len(results)} cases as expected")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
