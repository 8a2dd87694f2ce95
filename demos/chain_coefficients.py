"""Walk through the coefficient theory of the Koebe chain.

The bounded chain w(z, t) solves K(z) = e^t K(w) for the Koebe function
K(z) = z/(1-z)^2.  Its z^n coefficient is a polynomial B_n(y) in y = e^(-t),
and this script builds that polynomial three independent ways and watches
the differential relations vanish.
"""

from debranges import (
    chain_poly,
    coeff_closed,
    coeff_table,
    koebe_chain,
    ode_residual,
    system_residual,
)

N = 8

print("=== the chain read off its quadratic (1-z)^2 w = y z (1-w)^2 ===")
w = koebe_chain(N)
for n in range(1, N + 1):
    print(f"  z^{n}: {w.coefficient(n)}")

print()
print("=== the same triangle from the recurrence and the closed form ===")
table = coeff_table(N)
agree = all(
    table[(n, j)] == coeff_closed(n, j)
    and w.coefficient(n) == chain_poly(n)
    for n in range(1, N + 1)
    for j in range(1, n + 1)
)
assert agree
print(f"  recurrence == closed form == quadratic series for n <= {N}: {agree}")

print()
print("=== residuals of the defining differential relations ===")
ode = all(ode_residual(n).is_zero() for n in range(1, N + 1))
system = all(system_residual(n).is_zero() for n in range(2, N + 1))
assert ode and system
# With dw/dt = -y dw/dy, the linear PDE (z-1) z w' = (z+1) dw/dt read
# coefficient by coefficient is the coupled system, on the coefficients
# chain_poly(n) that w was asserted to have above.
print(f"  linear PDE residual is the zero series: {system}")
print(f"  second-order ODE residual, n <= {N}: {ode}")
print(f"  coupled first-order system, n <= {N}: {system}")

print()
print("=== boundary behaviour ===")
collapsed = [int(v) for v in w.eval_inner(1)]
vanishes = all(chain_poly(n)(1) == 0 for n in range(2, 20))
assert collapsed == [0, 1] + [0] * (N - 1) and vanishes
print(f"  at t = 0 (y = 1) the chain is z itself: coefficients {collapsed}")
print(f"  B_n(1) = 0 for n >= 2: {vanishes}")
