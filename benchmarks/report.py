#!/usr/bin/env python3
"""Every reproduced paper figure as text — the source for EXPERIMENTS.md.

Run:  python -m benchmarks.report

Performance numbers come from ``python -m benchmarks.e2e`` (see
``BENCHMARK.json``), not from here.
"""

from __future__ import annotations

import time

from repro.core import (
    NO_PREEMPTION,
    OFF_PATH,
    ON_PATH,
    UNIVERSAL,
    consolidate,
    difference,
    find_conflicts,
    intersection,
    join,
    justify,
    project,
    select,
    subsumption_graph,
    union,
)
from repro.errors import AmbiguityError
from repro.flat import MembershipBaseline, from_hrelation
from repro.render import render_justification
from repro.workloads import (
    elephant_dataset,
    flying_dataset,
    loves_dataset,
    school_dataset,
)
from repro.workloads.generators import membership_workload


def header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def verdict(relation, item) -> str:
    try:
        return "true" if relation.truth_of(item) else "false"
    except AmbiguityError:
        return "CONFLICT"


def fig1() -> None:
    header("Fig. 1 — the Flies relation (E1)")
    ds = flying_dataset()
    print(ds.flies)
    for name in ("tweety", "paul", "pamela", "patricia", "peter"):
        print("  {:10s} {}".format(name, verdict(ds.flies, (name,))))
    graph = subsumption_graph(ds.flies)
    print("subsumption graph edges (Fig. 1c):")
    for node in graph:
        for succ in sorted(graph[node], key=str):
            print("  {} -> {}".format(node if node is UNIVERSAL else node, succ))


def fig2() -> None:
    header("Fig. 2 — Student x Teacher product (E2)")
    ds = school_dataset()
    from repro.hierarchy import ProductHierarchy

    product = ProductHierarchy([ds.student, ds.teacher])
    chain_s = ["student", "obsequious_student", "john"]
    chain_t = ["teacher", "incoherent_teacher", "bill"]
    nodes = [(s, t) for s in chain_s for t in chain_t]
    print("grid items: {}".format(len(nodes)))
    edges = [
        (n, c)
        for n in nodes
        for c in product.children(n)
        if c in set(nodes)
    ]
    print("grid edges: {}".format(len(edges)))
    for a, b in edges:
        print("  ({}) -> ({})".format(", ".join(a), ", ".join(b)))


def fig3() -> None:
    header("Fig. 3 — Respects and its conflict (E3)")
    ds = school_dataset()
    unresolved = ds.unresolved()
    print("above the dashed line only:")
    for conflict in find_conflicts(unresolved):
        print("  {}".format(conflict))
    print("with the resolving tuple: consistent = {}".format(
        ds.respects.is_consistent()
    ))
    print(ds.respects)


def fig4() -> None:
    header("Fig. 4 — royal elephant colours (E4)")
    ds = elephant_dataset()
    print(ds.animal_color)
    for animal in ("clyde", "appu"):
        for colour in ds.color.leaves():
            print(
                "  {:6s} {:8s} {}".format(
                    animal, colour, verdict(ds.animal_color, (animal, colour))
                )
            )


def fig5() -> None:
    header("Fig. 5 / §3.2 — undetectable redundancy (E5)")
    from repro.core import HRelation
    from repro.extensions import PartitionRegistry, consolidate_with_partitions
    from repro.hierarchy import Hierarchy

    h = Hierarchy("d")
    for name in ("a", "b", "c"):
        h.add_class(name)
    h.add_instance("m1", parents=["a", "c"])
    h.add_instance("m2", parents=["b", "c"])
    r = HRelation([("x", h)], name="fig5")
    for name in ("a", "b", "c"):
        r.assert_item((name,))
    print("base consolidate keeps +(c): {}".format(("c",) in consolidate(r)))
    registry = PartitionRegistry()
    registry.declare(h, "c", ["a", "b"], exhaustive=False)
    extended = consolidate_with_partitions(r, registry)
    print("with the covering declared, +(c) removed: {}".format(("c",) not in extended))


def fig6() -> None:
    header("Fig. 6 — consolidation of Respects (E6)")
    ds = school_dataset()
    compact = consolidate(ds.respects)
    print("before: {} tuples, after: {} tuple(s)".format(len(ds.respects), len(compact)))
    print(compact)
    print(
        "extension preserved: {}".format(
            set(compact.extension()) == set(ds.respects.extension())
        )
    )


def figs7and8() -> None:
    header("Figs. 7 & 8 — selections (E7, E8)")
    ds = school_dataset()
    print(select(ds.respects, {"student": "obsequious_student"}, name="fig7"))
    print(select(ds.respects, {"student": "john"}, name="fig8"))


def fig9() -> None:
    header("Fig. 9 — selection with justification (E9)")
    ds = elephant_dataset()
    print(select(ds.animal_color, {"animal": "clyde"}, name="fig9a"))
    print(render_justification(justify(ds.animal_color, ("clyde", "grey"))))


def fig10() -> None:
    header("Fig. 10 — set operations on Loves (E10)")
    ds = loves_dataset()
    print(union(ds.jack_loves, ds.jill_loves, name="between_them_love"))
    print(intersection(ds.jack_loves, ds.jill_loves, name="both_love"))
    print(difference(ds.jack_loves, ds.jill_loves, name="jack_but_not_jill"))
    print(difference(ds.jill_loves, ds.jack_loves, name="jill_but_not_jack"))


def fig11() -> None:
    header("Fig. 11 — join and lossless projection (E11)")
    ds = elephant_dataset()
    joined = join(ds.enclosure_size, ds.animal_color, name="fig11b")
    print(joined)
    back = project(joined, ["animal", "color"], name="fig11c")
    print(back)
    print(
        "no loss of information: {}".format(
            set(back.extension()) == set(ds.animal_color.extension())
        )
    )


def appendix() -> None:
    header("Appendix — preemption semantics (A1)")
    names = ("tweety", "paul", "pamela", "patricia", "peter")
    print("{:10s} {:>10s} {:>10s} {:>14s}".format("creature", "off-path", "on-path", "no-preemption"))
    for name in names:
        row = ["{:10s}".format(name)]
        for strategy in (OFF_PATH, ON_PATH, NO_PREEMPTION):
            ds = flying_dataset()
            ds.flies.strategy = strategy
            row.append("{:>10s}".format(verdict(ds.flies, (name,))[:10]))
        print("  ".join(row))
    with_edge = flying_dataset(redundant_pamela_edge=True)
    print("redundant 'Pamela is a Penguin' edge, off-path: pamela = {}".format(
        verdict(with_edge.flies, ("pamela",))
    ))


def perf() -> None:
    header("P1/P2 — storage and query comparison")
    for members in (10, 50, 200):
        hierarchy, relation, instances = membership_workload(10, members)
        flat = from_hrelation(relation)
        baseline = MembershipBaseline(hierarchy)
        baseline.set_property("p", ["group{}".format(c) for c in range(10)])
        print(
            "  members/class={:4d}: hierarchical {:3d} tuples | flat {:5d} rows | "
            "baseline {:5d} rows".format(
                members, len(relation), len(flat), baseline.storage_rows("p")
            )
        )
    hierarchy, relation, instances = membership_workload(20, 50)
    baseline = MembershipBaseline(hierarchy)
    baseline.set_property("p", ["group{}".format(c) for c in range(20)])
    probe = instances[:100]
    start = time.perf_counter()
    for i in probe:
        relation.holds(i)
    hier = time.perf_counter() - start
    start = time.perf_counter()
    for i in probe:
        baseline.has_property(i, "p")
    joins = time.perf_counter() - start
    print(
        "  100 point queries: binding {:.4f}s vs membership joins {:.4f}s "
        "({:.0f}x)".format(hier, joins, joins / hier if hier else float("inf"))
    )


def figures() -> None:
    fig1()
    fig2()
    fig3()
    fig4()
    fig5()
    fig6()
    figs7and8()
    fig9()
    fig10()
    fig11()
    appendix()
    perf()


def main() -> int:
    figures()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
