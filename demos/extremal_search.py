"""Exhaustive extremal search plus the degree cleanups that tame larger hosts.

Small cases are settled by complete search (optionally up to isomorphism);
beyond the work cap the searcher refuses up front, and the oddly bipartite
construction gives the lower bound e_opt(n) instead. The second
half shows the two pruning passes: minimum-degree refinement can cascade to
nothing when a graph is too thin, while the codegree fixpoint deletes only
what the loss bound allows.
"""

import itertools
from fractions import Fraction

from tighthom.extremal import (
    brute_force_ex_hom,
    min_degree_refine,
    prune_low_codegree,
)
from tighthom.hypergraph import Hypergraph, complete_oddly_bipartite, tight_cycle
from tighthom.tightconn import is_hom_free


def main():
    res = brute_force_ex_hom(5, 4, {1})
    print(f"Largest 4-graphs on 5 vertices with no cycle image of length 1 mod 4:")
    print(f"  {res.max_edges} edges, {len(res.witnesses)} labeled maximizers "
          f"({res.explored} subsets explored)")
    for w in res.witnesses:
        print("   ", "; ".join(" ".join(map(str, e)) for e in w.edges))

    canon = brute_force_ex_hom(6, 4, {1}, canonical=True)
    print(f"On 6 vertices, up to isomorphism: {canon.max_edges} edges, "
          f"{len(canon.witnesses)} class ({canon.explored} graphs examined)")

    try:
        brute_force_ex_hom(9, 4, {1})
    except ValueError as err:
        print(f"On 9 vertices the pool is too large ({err}),")
        godd = complete_oddly_bipartite(7, 2)
        print(f"  but complete_oddly_bipartite(7, 2) is hom-free: {is_hom_free(godd, 1)}, "
              f"with {len(godd.edges)} edges.")

    print()
    thin = complete_oddly_bipartite(5, 5)
    live, removed = min_degree_refine(thin, Fraction(1, 2), Fraction(1, 10))
    print("Minimum-degree refinement on the 5+5 oddly bipartite host at")
    print(f"  density 1/2 - 1/10: removal cascade {removed} leaves {len(live)}")
    print("  vertices; the graph simply is not dense enough for that target.")

    c9 = tight_cycle(4, 9)
    pruned, deleted = prune_low_codegree(c9, Fraction(2, 9))
    print(f"Codegree cleanup of the tight 9-cycle at eps=2/9: every triple sits")
    print(f"  in at most 2 = eps*n edges, so all {deleted} edges go; "
          f"{len(pruned.edges)} remain.")

    k8 = Hypergraph(4, 8, itertools.combinations(range(8), 4))
    pruned, deleted = prune_low_codegree(k8, Fraction(3, 10))
    print(f"The complete 4-graph on 8 vertices at eps=3/10 instead keeps all "
          f"{len(pruned.edges)} edges ({deleted} deleted).")


if __name__ == "__main__":
    main()
