"""
Bohr sets in two metrics
========================

A Bohr set collects the group elements where a handful of characters stay
close to their value at the center.  Two distance conventions are
supported; conversion between them shrinks the radius by 2*pi.
"""

from bohrlab import (
    FORM_CHAR,
    BohrSpec,
    Char,
    Elem,
    GroupSpec,
    bohr_enumerate,
    bohr_member,
    char_form_to_torus_form,
    elem_add,
    halve_radius,
)

g = GroupSpec((8,))

b = BohrSpec(group=g, freqs=(Char((4,)),), radius=0.5, form=FORM_CHAR, center=Elem((0,)))
print("char-form Bohr set, freq 4, radius 0.5 on Z8:")
print("  members:", [str(e) for e in bohr_enumerate(b)])

# the torus form measures |t.z/n mod 1| instead of |chi(z) - 1|
tb = char_form_to_torus_form(b)
print(f"converted torus radius: {tb.radius:.6f}")
print("  members:", [str(e) for e in bohr_enumerate(tb)])
# conversion can only shrink the member set, never grow it

print("0 is always a member:", bohr_member(b, Elem((0,))))

# halving the radius gives a set whose pairwise sums stay in the original
hb = halve_radius(b)
small = bohr_enumerate(hb)
print("halved-radius members:", [str(e) for e in small])
for x in small:
    for y in small:
        assert bohr_member(b, elem_add(g, x, y))
print("sum of any two halved members lands back in the parent set")
