"""Fix the basket {1/3(1,2,2)} and let the genus grow.

Each genus step raises the degree by 1 and the codimension by one shape
class: hypersurface, then a codimension-2 complete intersection, then a
5x5-Pfaffian family.  At genus 2 the bare greedy reading of the series
misses the degree-3 generator (it is cancelled by two degree-3 relations
in the Hilbert function), and the index-3 point's polarisation seeds it
back in: that is the corrected inference at work.
"""

from fano2 import (
    Candidate,
    base_degree,
    corrected_inference,
    hilbert_series,
    infer_generators,
    parse_basket,
    poly_str,
)

basket = parse_basket("3/1")

for genus in (0, 1, 2):
    a3 = base_degree(basket) + genus + 2
    model = corrected_inference(Candidate(basket, genus))
    print(f"genus {genus}:  A^3 = {a3}")
    print(f"  weights   {model.weights}"
          + (f"  (seeded: {model.seeded})" if model.seeded else ""))
    print(f"  numerator {poly_str(model.numerator)}")
    print(f"  shape     {model.shape} (codim {model.codim})")

# The greedy loop alone stops before the degree-3 generator at genus 2:
series = hilbert_series(basket, 2, cutoff=60)
bare_weights, _ = infer_generators(series)
print(f"\ngenus 2 greedy-only weights: {bare_weights} "
      "(the polarisation seed supplies the missing 3)")
