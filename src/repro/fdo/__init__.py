"""Feedback-directed optimization: close the profile → linkage loop.

The paper's I2→I3→I4 ladder makes the 95% case fast by *static* choice
of linkage; this package closes the dynamic half of the loop.  A
``repro-profile/1`` document (exact per-edge call counts, frame-class
peaks, call-depth histogram — see :mod:`repro.fdo.profile`) is combined
with the sound ``repro-facts/1`` artifact from ``repro analyze`` and
turned into an image rewrite (:mod:`repro.fdo.decide`,
:mod:`repro.fdo.rewrite`):

* hot monomorphic LOCALCALL/EXTERNALCALL sites are promoted to
  SHORTDIRECTCALL/DIRECTCALL with proper section 6 headers;
* each procedure's frame-size index is picked from the observed
  frame-size histogram (the AV tuning question section 5.4 leaves open);
* the allocator's replenish batch and I4's bank count are sized from
  the observed peaks and call-depth distribution;
* a hot-procedure order is recorded for the JIT's compile queue.

Every rewrite is re-verified (``analyze_image``, which runs
``check_image`` once) and replay-validated against the profile's own run before it is emitted;
anything that cannot be proven both sound and no-worse is refused.  The
whole pass is logged as a machine-readable ``repro-fdo/1`` document.
"""

from repro.fdo.decide import FDO_SCHEMA, build_plan
from repro.fdo.imagefile import (
    IMAGE_FILE_SCHEMA,
    image_document,
    load_image_document,
    save_image,
)
from repro.fdo.profile import PROFILE_SCHEMA, collect_profile, profile_document
from repro.fdo.rewrite import (
    FdoRefusal,
    OptimizeResult,
    build_machine,
    optimize,
)

__all__ = [
    "FDO_SCHEMA",
    "IMAGE_FILE_SCHEMA",
    "PROFILE_SCHEMA",
    "FdoRefusal",
    "OptimizeResult",
    "build_machine",
    "build_plan",
    "collect_profile",
    "image_document",
    "load_image_document",
    "optimize",
    "profile_document",
    "save_image",
]
