"""Tour of the higher tangent lifts.

Shows the complete lift on small examples first: coordinates go to their
top-weight copies, scalar symbols Taylor-expand around the weight-zero
copies.  Then lifts the three-dimensional cross-product structure, checks
that the bracket identity and the verdict survive, and prints the point
cohomology split by lift weight: H1 is the kernel of {theta, .} on the
weight-1 generators of each lift weight.
"""

from superpoisson import complexes, courant, gallery, lifts
from superpoisson.charts import make_darboux_chart
from superpoisson.superpoly import parse_expr, to_text


def main():
    ch = make_darboux_chart(2, 1)
    print("complete lifts on a small chart:")
    for text, k in (("x1", 2), ("g", 2), ("x1*x2", 3), ("xi1*p1", 2)):
        P = parse_expr(ch, text)
        print("  (%s)^c at k=%d:  %s"
              % (text, k, to_text(lifts.complete_lift(P, k))))
    print()

    inst = gallery.build("cross3")
    flat = lifts.flatten_chart(inst.chart)
    theta = lifts.flatten_poly(inst.theta, flat)
    print("base potential:", to_text(theta))
    print("base verdict:", courant.classify(inst.theta).verdict)
    print()

    for k in (2, 3):
        TL = lifts.complete_lift(theta, k)
        print("lift at k=%d onto %s:" % (k, TL.chart.name))
        print("  potential:", to_text(TL))
        sc = courant.classify(TL)
        print("  verdict:", sc.verdict)
        P = parse_expr(flat, "xi1*pi2")
        Q = parse_expr(flat, "pi3")
        defect = lifts.lift_identity_check(P, Q, k)
        print("  bracket compatibility on a spot pair:",
              "holds" if defect.is_zero else to_text(defect))
        if k == 2:
            h0, h1 = complexes.point_cohomology(courant.AnchorVectors(TL))
            print("  weighted cohomology: h0 =", h0, " h1 =", h1)
        print()

    print("against the zero potential the same chart has plenty of "
          "degree-1 cohomology:")
    target = lifts.tangent_lift_chart(flat, 2)
    zero = courant.AnchorVectors(target.zero())
    _h0, h1 = complexes.point_cohomology(zero)
    print("  h1 =", h1)


if __name__ == "__main__":
    main()
