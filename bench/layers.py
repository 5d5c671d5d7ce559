"""Per-layer metrics, computed from one traced run (see tracer.py).

A layer is a boxlab module.  ``*_s`` is self time (span duration minus the
time covered by child spans) summed over the named functions; ``*_incl_s``
is inclusive time.  ``trace.*`` compares the traced run with the untraced
one and is filled in by run.py.  Each entry notes which end-to-end metric
the layer should move, and on which workload.
"""

from __future__ import annotations

from collections import defaultdict

PROPERTIES = (
    "system_valid", "box_measure_laws", "index_permutation", "seminorm_routes",
    "csg", "lemma_z", "uniform_full_period", "characteristic_bound",
    "van_der_corput", "magic", "span0", "normstar",
)
ROUTES = ("seminorm.seminorm_pow", "seminorm.seminorm_oracle_pow",
          "seminorm.seminorm_recursion_pow")
# Work counts that must repeat exactly from one traced run to the next.
COUNTERS = ("box_measure.builds", "box_measure.stages", "box_measure.entries_built",
            "box_measure.peak_support", "box_measure.integrate_terms",
            "seminorm.table_cells", "magic.star_carrier", "serialize.bytes_out")


class Trace:
    """Self times, call counts and route times of one tracer record."""

    def __init__(self, record: dict):
        names = record["names"]
        spans = record["spans"]
        self.counters = dict(record["counters"], bytes_out=record["stdout_bytes"])
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.total_self = 0.0
        for sid, t0, t1, parent in spans:
            name = names[sid]
            self.calls[name] += 1
            self.incl[name] += t1 - t0
            self.self_time[name] += t1 - t0
            if parent >= 0:
                self.self_time[names[spans[parent][0]]] -= t1 - t0
            else:
                self.total_self += t1 - t0
        # Route times are inclusive and disjoint: a seminorm_pow call made
        # by the recursion route counts for the recursion only.
        self.route_time: dict[str, float] = defaultdict(float)
        for sid, t0, t1, parent in spans:
            name = names[sid]
            if name not in ROUTES:
                continue
            while parent >= 0 and names[spans[parent][0]] not in ROUTES:
                parent = spans[parent][3]
            if parent < 0:
                self.route_time[name] += t1 - t0

    def own(self, *names: str) -> float:
        return sum(self.self_time[n] for n in names)

    def prefix(self, prefix: str) -> float:
        return sum(t for n, t in self.self_time.items() if n.startswith(prefix))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, value).  "moves" comments name the end-to-end metric and workload.
METRICS = {
    # builds and the ratio -> wall_s, peak_rss_mb on verify-z8
    "box_measure.builds": ("count", lambda t: t.calls["box_measure.build_box_measure"]),
    "box_measure.distinct_builds": ("count", lambda t: t.counters["distinct_builds"]),
    "box_measure.build_useful_ratio": ("ratio", lambda t: _ratio(
        t.counters["distinct_builds"], t.calls["box_measure.build_box_measure"])),
    # stages and support -> wall_s, peak_rss_mb on box-measure-z20, seminorm-z16
    "box_measure.stages": ("count", lambda t: t.calls["box_measure.relative_self_product"]),
    "box_measure.stage_s": ("s", lambda t: t.own("box_measure.relative_self_product")),
    "box_measure.entries_built": ("count", lambda t: t.counters["entries_built"]),
    "box_measure.peak_support": ("count", lambda t: t.counters["peak_support"]),
    # integrate -> wall_s on verify-z8, seminorm-z16; 0 on box-measure-z20
    "box_measure.integrate_calls": ("count", lambda t: t.calls["box_measure.integrate_product"]),
    "box_measure.integrate_terms": ("count", lambda t: t.counters["integrate_terms"]),
    "box_measure.integrate_s": ("s", lambda t: t.own("box_measure.integrate_product")),
    "box_measure.symmetry_s": ("s", lambda t: t.own(
        "box_measure.push_forward", "box_measure.marginal",
        "box_measure.apply_digit_flip", "box_measure.apply_index_permutation")),
    # routes and table -> wall_s on seminorm-z16
    "seminorm.measure_incl_s": ("s", lambda t: t.route_time["seminorm.seminorm_pow"]),
    "seminorm.oracle_incl_s": ("s", lambda t: t.route_time["seminorm.seminorm_oracle_pow"]),
    "seminorm.recursion_incl_s": ("s", lambda t: t.route_time["seminorm.seminorm_recursion_pow"]),
    "seminorm.table_cells": ("count", lambda t: t.counters["table_cells"]),
    "seminorm.table_s": ("s", lambda t: t.own(
        "seminorm.integrand_table", "seminorm.translated_product_integral",
        "seminorm.transform_power_tables")),
    # zed and csg -> wall_s on the verify workloads
    "seminorm.zed_calls": ("count", lambda t: t.calls["seminorm.zed_partition"]),
    "seminorm.zed_s": ("s", lambda t: t.own("seminorm.zed_partition")),
    "seminorm.csg_s": ("s", lambda t: t.own("seminorm.csg_check")),
    # averages -> wall_s on verify-klein, much less on verify-z8, 0 elsewhere
    "averages.vdc_calls": ("count", lambda t: t.calls["averages.van_der_corput_bound"]),
    "averages.vdc_s": ("s", lambda t: t.own("averages.van_der_corput_bound")),
    "averages.scan_s": ("s", lambda t: t.own(
        "averages.uniformity_scan", "averages.multilinear_average_J")),
    "averages.limit_s": ("s", lambda t: t.own(
        "averages.multi_average", "averages.multi_average_limit",
        "averages.common_period")),
    "averages.charbound_s": ("s", lambda t: t.own(
        "averages.characteristic_bound_check", "averages.derived_transform_system",
        "averages.derive_T_from_S")),
    # magic -> wall_s on the verify workloads
    "magic.star_builds": ("count", lambda t: t.calls["magic.build_star_system"]),
    "magic.star_carrier": ("count", lambda t: t.counters["star_carrier"]),
    "magic.star_build_s": ("s", lambda t: t.own("magic.build_star_system")),
    "magic.star_seminorm_s": ("s", lambda t: t.own(
        "magic.star_seminorm_pow", "magic.StarSystem.box_measure")),
    "magic.partition_s": ("s", lambda t: t.own(
        "magic.wstar_partition", "magic.sharp_space", "magic.sharp_invariant_partition",
        "magic.zed_from_sharp")),
    "magic.check_s": ("s", lambda t: t.own(
        "magic.magic_check", "magic.span0_orthogonality_check", "magic.normstar_check",
        "magic.vertex_product_observable", "magic.star_conditional_expectation")),
    # cond_exp -> verify wall_s; validate -> setup_s
    "system.cond_exp_calls": ("count", lambda t: t.calls["system.conditional_expectation"]),
    "system.cond_exp_s": ("s", lambda t: t.own("system.conditional_expectation")),
    "system.validate_s": ("s", lambda t: t.own("system.validate_system")),
    # verify: which property a verify wall_s change came from
    "verify.self_s": ("s", lambda t: t.prefix("verify.")),
    **{
        f"verify.{prop}_incl_s": ("s", lambda t, name=f"verify._Suite.check_{prop}":
                                  t.incl[name])
        for prop in PROPERTIES
    },
    # load -> setup_s; dump and bytes -> wall_s on box-measure-z20
    "serialize.load_s": ("s", lambda t: t.own(
        "serialize.load_json", "serialize.load_system", "serialize.load_observable",
        "serialize.system_from_dict", "serialize.observable_from_dict")),
    "serialize.dump_s": ("s", lambda t: t.own(
        "serialize.dumps", "serialize.measure_to_dict", "serialize.seminorm_to_dict",
        "serialize.approx_root_str")),
    "serialize.bytes_out": ("B", lambda t: t.counters["bytes_out"]),
    "cli.self_s": ("s", lambda t: t.prefix("cli.")),
}
