"""
Cancellation in alternating pentagonal sums
===========================================

Each summand of sum_n (-1)^n p2(x - n(3n-1)/2) is exponentially large,
yet the total stays tiny: the terms cancel to far below any single
term.  The script tabulates |S| against the e^{w c sqrt(x)} prediction
and fits the empirical exponent.
"""

from cancelsum import (alternating_sum, bound_main1, context_for,
                       empirical_exponent, maximize_delta, pentagonal_form,
                       rademacher_kernel)
from cancelsum.partition import growth_p1
from fractions import Fraction

kernel = rademacher_kernel("p2")
q = pentagonal_form()
c = float(growth_p1())  # the rate of p2, for the printed exponents

alpha_star, w = maximize_delta(Fraction(3, 2), kernel.growth)
print("Delta maximizer alpha* = %.6f, w = %.6f" % (alpha_star, w))
print()
print("%8s %10s %14s %14s %10s" % ("x", "terms", "|S|", "bound", "ratio"))

samples = []
for x in range(500, 4001, 500):
    ctx = context_for(x, kernel.growth)
    bound = bound_main1(Fraction(3, 2), kernel.growth, x, ctx)
    rep = alternating_sum(kernel, q, x, ctx, predicted_bound=bound)
    samples.append((float(x), rep.abs_value))
    print("%8d %10d %14.6g %14.6g %10.2e"
          % (x, rep.term_count, float(rep.abs_value), float(bound),
             float(rep.ratio)))

w_hat, intercept, rms = empirical_exponent(samples)
print()
print("fit |S| ~ e^{w sqrt(x)}: w_hat = %.4f (theory caps it at w*c = %.4f)"
      % (w_hat, float(w) * c))
print("largest summand at x=4000 is ~e^{c sqrt(x)} = e^{%.1f};"
      " the sum itself stays O(1)" % (c * 4000 ** 0.5))
