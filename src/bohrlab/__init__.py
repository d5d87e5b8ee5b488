"""Explicit Bohr neighborhoods inside sumsets A+B-B on finite abelian groups.

The package extracts a certificate -- a witness element, a small frequency
set, and a radius -- proving that a translated Bohr set sits inside the
sumset, then re-checks every claim with independent brute-force oracles.
"""

from .bohr import (
    FORM_CHAR,
    FORM_TORUS,
    BohrSpec,
    bohr_enumerate,
    bohr_member,
    char_form_to_torus_form,
    halve_radius,
    members_mask,
)
from .claim import BoundCheck, Certificate
from .errors import (
    AmbiguousBoundary,
    BohrlabError,
    CapacityError,
    DomainError,
    EmptyInputError,
    InvariantBreach,
    PreconditionError,
    RetryExhausted,
    ShapeError,
)
from .extractor import (
    TrigPoly,
    bohr_from_trigpoly,
    extract,
    find_witness,
    normalize_means,
)
from .groups import (
    Char,
    Elem,
    GroupSpec,
    char_eval,
    elem_add,
    elem_neg,
    enumerate_chars,
    enumerate_elems,
    pairing,
    parse_group,
    torus_norm,
)
from .rfft import (
    SUITE_TOLERANCE,
    SuiteReport,
    convolve,
    dft,
    fourier_identity_suite,
    idft,
    plancherel_pairing,
    triple_convolve,
)
from .serialize import (
    certificate_from_json,
    certificate_to_json,
    fmt_real,
    report_to_json,
)
from .sets import (
    GroupSubset,
    random_nonempty_subset,
    random_subset,
    read_set_file,
    structured_subset,
    sumset_ABmB,
    write_set_file,
)
from .spectral import (
    DensityFn,
    Spectrum,
    dft_factored,
    difference_counts,
    idft_factored,
    reflect,
    representation_counts,
)
from .verify import (
    VerificationReport,
    good_shift_set,
    verify_certificate,
)

__version__ = "0.1.0"
