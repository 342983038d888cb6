"""The optimized-image file: a rewrite, pinned and rebuildable.

Like the snapshot file, the document embeds the module sources so the
image can be rebuilt anywhere without the original files; unlike a
snapshot it carries no machine state — just the *rewrite* (promotion
set, fsi overrides, replenish batch, bank count) plus the expected
fingerprint.  Loading rebuilds deterministically and refuses when the
rebuilt fingerprint differs (a tampered or version-skewed file), so a
loaded image is exactly the one the optimizer verified.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.interp.machine import Machine

from repro.fdo.rewrite import FdoRefusal, OptimizeResult, build_machine

#: Version tag of the optimized-image file; bump on shape change.
IMAGE_FILE_SCHEMA = "repro-image/1"


def image_document(result: OptimizeResult) -> dict:
    """Serialize an :class:`OptimizeResult` into the versioned document."""
    return {
        "schema": IMAGE_FILE_SCHEMA,
        "impl": result.impl,
        "entry": f"{result.entry[0]}.{result.entry[1]}",
        "sources": list(result.sources),
        "rewrite": {
            "promotions": [list(site) for site in result.promotions],
            "fsi_overrides": {
                f"{module}.{proc}": fsi
                for (module, proc), fsi in sorted(result.fsi_overrides.items())
            },
            "replenish_batch": result.replenish_batch,
            "bank_count": result.bank_count,
        },
        "original_image_hash": result.original_hash,
        "image_hash": result.image_hash,
        "log": result.log,
    }


def save_image(result: OptimizeResult, path: str | Path) -> dict:
    doc = image_document(result)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def load_image_document(doc: dict) -> tuple[Machine, dict]:
    """Rebuild the optimized image from its document, fingerprint-checked."""
    from repro.check.interproc import image_fingerprint

    if not isinstance(doc, dict) or doc.get("schema") != IMAGE_FILE_SCHEMA:
        raise FdoRefusal(
            f"not a {IMAGE_FILE_SCHEMA} file (schema "
            f"{doc.get('schema') if isinstance(doc, dict) else None!r})"
        )
    module, _, proc = doc["entry"].partition(".")
    rewrite = doc.get("rewrite", {})
    promotions = frozenset(
        (site[0], site[1], site[2]) for site in rewrite.get("promotions", ())
    )
    fsi_overrides = {}
    for name, fsi in rewrite.get("fsi_overrides", {}).items():
        owner, _, procedure = name.partition(".")
        fsi_overrides[(owner, procedure)] = fsi
    machine = build_machine(
        doc["sources"],
        doc["impl"],
        (module, proc),
        promotions=promotions,
        fsi_overrides=fsi_overrides,
        replenish_batch=rewrite.get("replenish_batch"),
        bank_count=rewrite.get("bank_count"),
    )
    rebuilt = image_fingerprint(machine.image)
    if rebuilt != doc.get("image_hash"):
        raise FdoRefusal(
            f"rebuilt image fingerprint {rebuilt} does not match the "
            f"file's {doc.get('image_hash')!r}; the file is stale or was "
            "edited"
        )
    return machine, doc
