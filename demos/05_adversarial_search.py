"""Hunt for perturbation pairs worse than the structured families.

The structured families probe the simplex corners by construction; the
search scores each family's p against the two extremes of its L1 ball,
the flattest point (highest entropy) and the steepest (lowest).  The
entropy is Schur-concave, so for that p no pair in the ball does better,
and family A's own perturbation is its flattest point.  Whatever it
returns is certified: the pair re-measures its own L1 distance on
construction.
"""

from tempent import (
    EntropyParams,
    family_a_pair,
    family_b_pair,
    random_pair_search,
    stability_ratio,
)


def main():
    params = EntropyParams(sigma=0.5, lam=0.0)
    delta = 0.1

    for n in (3, 5, 10):
        rec_a = stability_ratio(family_a_pair(n, delta), params)
        rec_b = stability_ratio(family_b_pair(n, delta), params)
        pair, rec = random_pair_search(n, delta, params, iterations=4000, seed=42)
        print(f"n={n:<3} delta={delta}")
        print(f"  family A ratio   : {rec_a.ratio:.6f}")
        print(f"  family B ratio   : {rec_b.ratio:.6f}")
        print(f"  search best ratio: {rec.ratio:.6f}")
        print(f"  search L1 used   : {pair.l1_distance():.6f} (budget {delta})")
        print(f"  best p           : {pair.p.weights.round(4)}")
        print(f"  best p'          : {pair.p_prime.weights.round(4)}")
        print()

    print(
        "the search never loses to the structured families (they seed it),\n"
        "and on these small simplices it typically stays at the certainty\n"
        "corner: the steep end of the generator is where the response is\n"
        "largest at fixed L1 budget."
    )


if __name__ == "__main__":
    main()
