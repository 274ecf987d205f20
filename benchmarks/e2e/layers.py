"""Per-layer metrics of one traced phase, named ``<layer>.<metric>``.

``self_s`` is time inside the layer's own spans minus their children,
``share`` is ``self_s`` over the phase's wall clock, ``total_s`` is
inclusive and ``total_share`` is ``total_s`` over wall (used for the
composite layers whose own code is thin).  A layer the workload never
entered reports zeros.  Counts repeat exactly for a given command line;
README.md lists which end-to-end metric each one is predicted to move.
"""

from __future__ import annotations

from tracer import Summary


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def bridge_share(summary: Summary) -> float:
    """Evaluator time outside ``execute_scheduled`` over all evaluator time.

    In ``serve_mix`` that is the ingress/egress cost of slot-packing:
    key switches, lane rotations and masks around the program body.
    Zero for a workload that never runs a schedule: there is no bridge.
    """
    if not summary.layer("sched.execute").calls:
        return 0.0
    inside = outside = 0.0
    for index, span in enumerate(summary.spans):
        if span.layer != "ckks.ops":
            continue
        above = [up.layer for up in summary.ancestors(index)]
        if "ckks.ops" in above:
            continue  # only outermost evaluator calls; nested ones are already inside
        if "sched.execute" in above:
            inside += span.seconds
        else:
            outside += span.seconds
    return _ratio(outside, inside + outside)


def evk_rebuilds(summary: Summary) -> int:
    """``shoup_precompute`` spans beneath a key-switch: evk tables rebuilt."""
    return sum(
        1
        for index, span in enumerate(summary.spans)
        if span.name == "rns.kernels:shoup_precompute"
        and any(up.layer == "ckks.keyswitch" for up in summary.ancestors(index))
    )


def layer_metrics(
    summary: Summary,
    counters: dict[str, float],
    warm: Summary,
    extras: dict[str, float],
) -> dict[str, float]:
    wall = summary.wall_s
    calls = {name: stat.calls for name, stat in summary.by_name.items()}
    out: dict[str, float] = {}

    def put(layer: str, **values: float) -> None:
        for key, value in values.items():
            out[f"{layer}.{key}"] = float(value)

    def own(layer: str) -> dict[str, float]:
        stat = summary.layer(layer)
        return {"self_s": stat.self_s, "share": _ratio(stat.self_s, wall)}

    def inclusive(layer: str) -> dict[str, float]:
        stat = summary.layer(layer)
        return {
            "calls": stat.calls,
            "total_s": stat.total_s,
            "total_share": _ratio(stat.total_s, wall),
        }

    ntt = summary.layer("ntt.plan")
    put(
        "ntt.plan",
        fwd_calls=calls.get("ntt.plan:fwd", 0),
        inv_calls=calls.get("ntt.plan:inv", 0),
        limb_rows=counters["ntt.limb_rows"],
        ns_per_butterfly=_ratio(ntt.self_s * 1e9, counters["ntt.butterflies"]),
        **own("ntt.plan"),
    )
    put(
        "rns.bconv",
        calls=summary.layer("rns.bconv").calls,
        macs=counters["bconv.macs"],
        **own("rns.bconv"),
    )
    put(
        "rns.kernels",
        mul_calls=calls.get("rns.kernels:mul", 0),
        mul_words=counters["kernels.mul_words"],
        inner_calls=calls.get("rns.kernels:inner", 0),
        shoup_precompute_calls=calls.get("rns.kernels:shoup_precompute", 0),
        **own("rns.kernels"),
    )
    put(
        "rns.poly",
        calls=summary.layer("rns.poly").calls,
        self_s=summary.layer("rns.poly").self_s,
    )
    switch = summary.layer("ckks.keyswitch")
    put(
        "ckks.keyswitch",
        calls=switch.calls,
        total_s=switch.total_s,
        evk_rebuilds_per_call=_ratio(evk_rebuilds(summary), switch.calls),
        **own("ckks.keyswitch"),
    )
    put(
        "ckks.context",
        encode_calls=calls.get("ckks.context:encode", 0),
        encrypt_calls=calls.get("ckks.context:encrypt", 0),
        decrypt_calls=calls.get("ckks.context:decrypt", 0),
        total_s=summary.layer("ckks.context").total_s,
        share=own("ckks.context")["share"],
    )
    put(
        "ckks.ops",
        hmult_calls=calls.get("ckks.ops:multiply", 0),  # square() lands here too
        rotate_calls=calls.get("ckks.ops:rotate", 0) + calls.get("ckks.ops:conjugate", 0),
        pmult_calls=calls.get("ckks.ops:multiply_plain", 0),
        rescale_calls=calls.get("ckks.ops:rescale", 0),
        switch_key_calls=calls.get("ckks.ops:apply_switch_key", 0),
        **own("ckks.ops"),
    )
    for layer in ("ckks.linear", "ckks.poly_eval", "sched.execute"):
        put(layer, **inclusive(layer))
    put(
        "ckks.bootstrap",
        **{**inclusive("ckks.bootstrap"), "calls": calls.get("ckks.bootstrap:bootstrap", 0)},
    )
    put(
        "serve.wire",
        bytes_in=counters["wire.bytes_in"],
        bytes_out=counters["wire.bytes_out"],
        **own("serve.wire"),
    )
    admission = summary.layer("check.admission")
    put(
        "check.admission",
        calls=admission.calls,
        rejected=counters["admission.rejected"],
        ms_per_call=_ratio(admission.total_s * 1e3, admission.calls),
        reject_ms_p50=extras.get("reject_ms_p50", 0.0),
    )
    put(
        "check.equiv",
        calls=calls.get("check.equiv:certify_schedule", 0),
        warm_calls=warm.name("check.equiv:certify_schedule").calls,
        us_per_op=_ratio(summary.layer("check.equiv").self_s * 1e6, counters["equiv.source_ops"]),
        **own("check.equiv"),
    )
    put(
        "serve.batching",
        plans=counters["batching.plans"],
        mean_batch_size=_ratio(counters["batching.jobs"], counters["batching.plans"]),
        mean_occupancy=_ratio(counters["batching.occupancy"], counters["batching.plans"]),
    )
    put(
        "serve.server",
        queue_wait_ms_p50=extras.get("queue_wait_ms_p50", 0.0),
        execute_ms_p50=extras.get("execute_ms_p50", 0.0),
        engine_ops_per_job=extras.get("engine_ops_per_job", 0.0),
        bridge_share=bridge_share(summary),
    )
    put(
        "sched.trace",
        calls=summary.layer("sched.trace").calls,
        ops_in=counters["sched.ops_in"],
        ops_out=counters["sched.ops_out"],
        offchip_bytes=counters["sched.offchip_bytes"],
        **own("sched.trace"),
    )
    put(
        "workloads.traces",
        calls=summary.layer("workloads.traces").calls,
        self_s=summary.layer("workloads.traces").self_s,
    )
    put(
        "hw.sim",
        calls=summary.layer("hw.sim").calls,
        us_per_op=_ratio(summary.layer("hw.sim").self_s * 1e6, counters["sim.ops"]),
        simulated_s_total=counters["sim.simulated_s"],
        stats_fingerprint=extras.get("stats_fingerprint", 0.0),
        **own("hw.sim"),
    )
    put(
        "bench",
        unattributed_share=_ratio(summary.root_self_s, wall),
        trace_overhead_share=extras["trace_overhead_share"],
        idle_share=extras["idle_share"],
        precision_bits=extras["precision_bits"],
        units_traced=extras["units_traced"],
    )
    return out


def layer_table(summary: Summary) -> list[str]:
    """Human-readable breakdown: every layer entered, widest self time first."""
    lines = [f"  {'layer':18s} {'calls':>8s} {'self_s':>9s} {'share':>7s} {'total_s':>9s}"]
    rows = sorted(summary.by_layer.items(), key=lambda item: -item[1].self_s)
    for layer, stat in rows:
        lines.append(
            f"  {layer:18s} {stat.calls:8d} {stat.self_s:9.3f} "
            f"{_ratio(stat.self_s, summary.wall_s):7.3f} {stat.total_s:9.3f}"
        )
    lines.append(
        f"  {'(unattributed)':18s} {'':8s} {summary.root_self_s:9.3f} "
        f"{_ratio(summary.root_self_s, summary.wall_s):7.3f} {summary.wall_s:9.3f}"
    )
    return lines
