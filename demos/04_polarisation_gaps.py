"""Two candidates whose ambient cannot be read off the series alone.

A basket point 1/r(a, -a, 2) needs ambient weights covering the residues
{0, a, r-a, 2} mod r; when the greedy reading of the Hilbert series stops
(at the first relation) before supplying them, the missing degrees are
forced in and the ring lands in codimension 4 or higher.
"""

from fano2 import (
    Candidate,
    corrected_inference,
    hilbert_series,
    infer_generators,
    parse_basket,
    polarization_gaps,
    poly_str,
)

# Index 11, genus -1: the series alone suggests a complete intersection
# in 7 variables, but nothing there polarises the 1/11 point.
basket = parse_basket("11/2")
series = hilbert_series(basket, -1, cutoff=60)
weights, numerator = infer_generators(series)
print(f"greedy weights      {weights}")
print(f"greedy numerator    {poly_str(numerator)}")
candidate = Candidate(basket, -1)
print(f"residue gaps        {polarization_gaps(weights, basket, candidate.read)}")
model = corrected_inference(candidate)
print(f"corrected weights   {model.weights}  -> codim {model.codim}")

# Index 9, genus 1: three generators in degree 1, two more in degree 2,
# and the 1/9 point still needs weights hitting 0 and 8 mod 9.
basket = parse_basket("9/1")
series = hilbert_series(basket, 1, cutoff=60)
print(f"\nindex-9 series      {', '.join(str(c) for c in series[:7])}, ...")
model = corrected_inference(Candidate(basket, 1))
print(f"corrected weights   {model.weights}  (seeded {model.seeded})")
print(f"codimension         >= {model.codim}")
