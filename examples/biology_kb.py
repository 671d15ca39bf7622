#!/usr/bin/env python3
"""A mid-sized knowledge base: ~100 classes, cross-cutting capabilities,
layered exceptions, views, and aggregation.

Where the other examples stay at the paper's toy scale, this one runs
the same machinery over a biology taxonomy with genuine multiple
inheritance (bats are flying mammals, flying fish are flying fish,
penguins are swimming birds) — the workload a frame system or semantic
net would actually push at the back-end.

Run:  python examples/biology_kb.py
"""

from repro import consolidate, member, select_where
from repro.core import MaterializedView, ViewPlan, aggregate
from repro.workloads import biology_dataset


def main() -> None:
    bio = biology_dataset()
    h = bio.biology
    print(
        "taxonomy: {} nodes, {} leaves, {} multi-parent classes".format(
            len(h),
            len(h.leaves()),
            sum(1 for n in h.nodes() if len(h.parents(n)) > 1),
        )
    )
    print()

    print("stored can_fly assertions ({} tuples):".format(len(bio.can_fly)))
    for t in bio.can_fly.tuples():
        print("  ", bio.can_fly.format_tuple(t))
    print("flat extension: {} flying creatures".format(bio.can_fly.extension_size()))
    print()

    print("spot checks (all decided by binding, no flat data stored):")
    for creature in ("eagle", "fruit_bat", "exocoetus", "emperor", "ostrich", "bee"):
        print("  {:12s} flies: {}".format(creature, bio.can_fly.holds(creature)))
    print()

    print("which swimmers fly? (capability classes cross-cut the tree)")
    swimmers = select_where(bio.can_fly, member("creature", "swimmer"))
    print("  ", sorted(x[0] for x in swimmers.extension()))
    print()

    print("egg-layers per vertebrate class (aggregation over the extension):")
    for klass, n in aggregate.group_by_class(
        bio.lays_eggs, "creature", ["bird", "fish", "reptile", "mammal"]
    ).items():
        print("  {:8s} {}".format(klass, n))
    print("  (the platypus is the lone mammal — the monotreme re-insertion)")
    print()

    print("a materialized view stays fresh across updates:")
    flying_swimmers = MaterializedView(
        "flying_swimmers",
        plan=ViewPlan("select", [bio.can_fly], {"creature": "swimmer"}),
    )
    before = sorted(x[0] for x in flying_swimmers.extension())
    bio.can_fly.assert_item(("mallard",), truth=False)  # a grounded duck
    after = sorted(x[0] for x in flying_swimmers.extension())
    print("  before: {}".format(before))
    print("  after grounding mallard: {}".format(after))
    print(
        "  refreshes: {} (one per read after a change)".format(
            flying_swimmers.refresh_count
        )
    )
    print()

    compact = consolidate(bio.can_fly)
    print(
        "consolidation: {} -> {} tuples, extension unchanged: {}".format(
            len(bio.can_fly), len(compact),
            set(compact.extension()) == set(bio.can_fly.extension()),
        )
    )


if __name__ == "__main__":
    main()
