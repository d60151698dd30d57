"""Walk through the seven-dimensional cross-product structure.

Builds the catalogue instance, prints the multiplication table of the
derived bracket on the section frame, then shows why the structure is
pre-Courant but not Courant: the self-bracket of the potential is
nonzero while every anchor-style obstruction vanishes, and the
Jacobiator picks up a nonzero value on well-chosen triples.  The point
cohomology is (1, 0): H1 is the kernel of {T, .} on the weight-1
generators, and no nonzero combination of them is closed.
"""

from superpoisson import complexes, courant, gallery
from superpoisson.superpoly import to_text


def main():
    inst = gallery.build("cross7")
    ch = inst.chart
    T = inst.theta
    print("potential:")
    print("  ", to_text(T))
    print()

    secs = ["pi%d" % i for i in range(1, 8)]
    print("derived bracket table (rows s, columns t, entries [[s,t]]):")
    header = "      " + "".join("%8s" % t for t in secs)
    print(header)
    for s in secs:
        row = []
        for t in secs:
            val = courant.pre_bracket(T, ch.gen(s), ch.gen(t))
            row.append("%8s" % (to_text(val) if not val.is_zero else "."))
        print("%6s" % s + "".join(row))
    print()

    sc = courant.classify(T)
    print("classification:", sc.verdict)
    print("self-bracket {T,T}:", to_text(sc.sigma))
    print()

    print("a Jacobiator that refuses to vanish:")
    pair = courant.section_pair(T, ch.gen("pi1"), ch.gen("pi2"))
    J = courant.jacobiator(pair, ch.gen("pi4"))
    print("  J(pi1, pi2, pi4) =", to_text(J))
    M = courant.jacobiator_via_master(sc.sigma, ch.gen("pi1"),
                                      ch.gen("pi2"), ch.gen("pi4"))
    print("  master route     =", to_text(M))
    print()

    print("and one that does:")
    J0 = courant.jacobiator(pair, ch.gen("pi3"))
    print("  J(pi1, pi2, pi3) =", to_text(J0))
    print()

    anchors = courant.AnchorVectors(T)
    h0, h1 = complexes.point_cohomology(anchors)
    print("point cohomology of the small complex: (%d, %d)" % (h0[0], h1[0]))
    print("degree-1 closure condition:",
          complexes.naive_cohomology_condition(T, sc.sigma))
    print()
    print("small-complex elements and their differentials:")
    for el in inst.l_elements:
        image = complexes.q_theta(T, el)
        member = complexes.naive_membership(anchors, image)
        print("  Q(%s) = %s   stays in the complex: %s"
              % (to_text(el), to_text(image), member))


if __name__ == "__main__":
    main()
