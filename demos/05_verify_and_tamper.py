"""
Independent verification, and what happens when a certificate lies
==================================================================

verify_certificate recomputes everything from definitions: translate sums,
an exact-phase factored transform (no FFT library) and direct enumeration of
the sumset, so it shares no failure modes with the extractor.  Here we
verify an honest certificate, then tamper with it and watch specific checks
fail.
"""

import dataclasses

from bohrlab import (
    Elem,
    GroupSpec,
    extract,
    good_shift_set,
    random_nonempty_subset,
    verify_certificate,
)

g = GroupSpec((64,))
A = random_nonempty_subset(g, 0.3, seed=7)
B = random_nonempty_subset(g, 0.25, seed=8)
print(f"|A|={A.size} |B|={B.size} on {g}")

cert = extract(A.indicator(), B.indicator())
report = verify_certificate(cert, A, B)
print(f"honest certificate: passed={report.passed}")
for check in report.checks:
    print(f"  {'ok ' if check.passed else 'FAIL'} {check.name}")

# how much of A works as a translate center, not just a0?
good = good_shift_set(A, B, cert.bohr_char_form)
print(f"good shifts: {good.size}/{A.size} elements of A")

# tamper 1: double the char-form radius.  The member set may not even
# change, but radius-consistency ties the radius to c/k and catches it.
wider = dataclasses.replace(
    cert.bohr_char_form, radius=2 * cert.bohr_char_form.radius
)
bad = dataclasses.replace(cert, bohr_char_form=wider)
r = verify_certificate(bad, A, B)
print(f"\ndoubled radius: passed={r.passed}, first failure: {r.first_failure().name}")
print(f"  detail: {r.first_failure().detail}")

# tamper 2: claim a different witness (the Bohr forms still carry the real
# one, so the centers no longer agree with the claim)
shifted = Elem(((cert.a0.coords[0] + 1) % 64,))
bad2 = dataclasses.replace(cert, a0=shifted)
r2 = verify_certificate(bad2, A, B)
print(f"shifted witness: passed={r2.passed}, first failure: {r2.first_failure().name}")
