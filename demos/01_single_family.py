"""Walk one candidate from basket data to a closed-form model.

We pick the basket {1/3(1,2,2), 1/5(1,4,2), 1/11(3,8,2)} with genus -2:
the smallest-degree candidate in the whole classification.
"""

from fano2 import (
    Candidate,
    RationalForm,
    acz12_from_basket,
    base_degree,
    corrected_inference,
    hilbert_series,
    kawamata_status,
    parse_basket,
    poly_str,
)

basket = parse_basket("3/1,5/1,11/3")
genus = -2

# Global Riemann-Roch data comes straight from the basket.
acz12 = acz12_from_basket(basket)
a3 = base_degree(basket) + genus + 2
print(f"basket            {basket}")
print(f"load sum          {basket.cost}  (must stay below 24)")
print(f"Ac2/12            {acz12}")
print(f"A^3               {a3}")
print(f"degree status     {kawamata_status(a3, acz12)}")

# The Hilbert series sum h^0(nA) t^n, exact integer coefficients.
series = hilbert_series(basket, genus, cutoff=60)
print(f"series            {', '.join(str(c) for c in series[:13])}, ...")

# Reading generators off the series recovers a weighted hypersurface.
model = corrected_inference(Candidate(basket, genus))
print(f"ambient weights   {model.weights}")
print(f"numerator         {poly_str(model.numerator)}")
print(f"shape             {model.shape} (codim {model.codim})")
print(f"closed form       {RationalForm(model.numerator, model.weights)}")
