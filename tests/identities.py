"""Engine identities checked on random inputs by several test modules.

Each function returns a defect polynomial that is identically zero when
the library's sign conventions are consistent; tests assert is_zero on
random inputs.
"""

from superpoisson import complexes, courant
from superpoisson.poisson import bracket


def leibniz_over_functions_defect(T, s, f, p):
    """[[s, f p]] - rho(s)f p - (-1)^(f~(s~+1)) f [[s, p]]."""
    sf = f.parity()
    ss = s.parity()
    sign = -1 if (sf and not ss) else 1
    return (courant.pre_bracket(T, s, f * p)
            - courant.anchor_apply(T, s, f) * p
            - f * courant.pre_bracket(T, s, p) * sign)


def pairing_invariance_defect(T, s, p, l):
    """rho(s)<p,l> - <[[s,p]], l> - (-1)^(p~(s~+1)) <p, [[s,l]]>."""
    sp = p.parity()
    ss = s.parity()
    sign = -1 if (sp and not ss) else 1
    return (courant.anchor_apply(T, s, courant.pairing(p, l))
            - courant.pairing(courant.pre_bracket(T, s, p), l)
            - courant.pairing(p, courant.pre_bracket(T, s, l)) * sign)


def jacobiator_master_defect(T, s, p, l):
    """J(s,p,l) - (-1)^p~ (1/2) {{{{T,T},s},p},l}."""
    return (courant.jacobiator(courant.section_pair(T, s, p), l)
            - courant.jacobiator_via_master(bracket(T, T), s, p, l))


def commutator_defect(T, f, a):
    """iota_f(Q a) + (-1)^f~ Q(iota_f a) - {{T,{T,f}}, a}."""
    return complexes.naive_commutator_defect(T, f, a,
                                             complexes.q_theta(T, a))


def d_squared_on_function(T, f):
    """{T, {T, f}}; zero for all base f exactly on the pre-Courant side."""
    return bracket(T, bracket(T, f))


def weight_one_frame(chart):
    """complexes.section_frame, under the name perfbench/workloads.py loads."""
    return complexes.section_frame(chart)
