"""Adversarial inputs to the optimizer: every lie must be refused.

The FDO pipeline trusts nothing it cannot re-derive: profiles and facts
are fingerprint-pinned to the image actually built from the sources,
interest levels must match, a cold or empty profile produces a no-op
(byte-identical) image rather than a speculative one, a site whose
facts classification contradicts its heat is never promoted, and a
tampered optimized-image file refuses to load.  The CLI surfaces every
refusal as exit 2 (the repo-wide cannot-build/schema-mismatch code).
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.check.checker import check_image
from repro.check.fuzz import FDO_DEFECT_INJECTIONS, build_optimized_image
from repro.check.interproc import analyze_image
from repro.fdo import (
    FdoRefusal,
    build_machine,
    collect_profile,
    load_image_document,
    optimize,
)
from repro.workloads.programs import CORPUS


def fixture(name="calls", preset="i2"):
    """(sources, entry, args, profile, facts) for one corpus program."""
    program = CORPUS[name]
    sources = list(program.sources)
    profile = collect_profile(
        sources, preset, program.entry, tuple(program.args)
    )
    machine = build_machine(sources, preset, program.entry)
    facts = analyze_image(machine.image).to_facts()
    return sources, program.entry, tuple(program.args), profile, facts


def test_stale_profile_refused():
    sources, entry, _, profile, facts = fixture()
    stale = dict(profile, image_hash="0" * 32)
    with pytest.raises(FdoRefusal, match="stale profile"):
        optimize(sources, "i2", entry, stale, facts)


def test_stale_facts_refused():
    sources, entry, _, profile, facts = fixture()
    stale = dict(facts, image_hash="f" * 32)
    with pytest.raises(FdoRefusal, match="stale facts"):
        optimize(sources, "i2", entry, profile, stale)


def test_wrong_interest_level_refused():
    """Evidence collected under one linkage does not transfer: resolution
    costs, frame ladders, and bank shapes all differ per preset."""
    sources, entry, _, profile, facts = fixture(preset="i2")
    with pytest.raises(FdoRefusal, match="interest levels"):
        optimize(sources, "i3", entry, profile, facts)


def test_wrong_schemas_refused():
    sources, entry, _, profile, facts = fixture()
    with pytest.raises(FdoRefusal, match="bad profile"):
        optimize(sources, "i2", entry, dict(profile, schema="repro-profile/0"), facts)
    with pytest.raises(FdoRefusal, match="bad facts"):
        optimize(sources, "i2", entry, profile, dict(facts, schema="nope/9"))


def test_cold_profile_is_byte_identical_noop():
    """No site reaches the hotness bar: the optimizer must emit, and the
    emitted image must be the original, byte for byte."""
    sources, entry, args, profile, facts = fixture()
    result = optimize(
        sources, "i2", entry, profile, facts, min_calls=10**9
    )
    assert result.log["noop"]
    assert result.log["decisions"] == []
    assert result.image_hash == result.original_hash
    original = build_machine(sources, "i2", entry)
    assert result.build().image.code.raw == original.image.code.raw


def test_empty_profile_is_byte_identical_noop():
    """A run that never calls anything yields an edgeless profile; the
    rewrite has no evidence and must change nothing."""
    source = """
MODULE Main;
PROCEDURE main(): INT;
BEGIN
  RETURN 42;
END;
END.
"""
    entry = ("Main", "main")
    profile = collect_profile([source], "i2", entry)
    assert profile["edges"] == []
    facts = analyze_image(build_machine([source], "i2", entry).image).to_facts()
    result = optimize([source], "i2", entry, profile, facts)
    assert result.log["noop"]
    assert result.image_hash == result.original_hash


def test_falsely_hot_polymorphic_site_refused():
    """A hot site whose facts classify it polymorphic is never promoted
    (DIRECTCALL needs the single statically proven target), and the
    refusal is logged with the evidence."""
    sources, entry, args, profile, facts = fixture()
    poisoned = copy.deepcopy(facts)
    victims = 0
    for proc in poisoned["procedures"]:
        for site in proc.get("sites", ()):
            if site["kind"] == "call" and site["targets"]:
                site["classification"] = "polymorphic"
                site["targets"] = sorted(
                    set(site["targets"]) | {"Main.someone_else"}
                )
                victims += 1
    assert victims, "fixture has no call site to poison"

    result = optimize(sources, "i2", entry, profile, poisoned)
    refusals = [
        r
        for r in result.log["refusals"]
        if "polymorphic" in r.get("reason", "")
    ]
    assert refusals, result.log["refusals"]
    assert not any(
        decision["kind"] == "promote-site"
        for decision in result.log["decisions"]
    )
    # The surviving rewrite is still sound and still no-worse.
    machine = result.build()
    assert check_image(machine.image).ok
    machine.start(entry[0], entry[1], *args)
    assert machine.run() == profile["results"]
    assert machine.counter.cycles <= profile["meters"]["cycles"]


def test_xfer_sites_are_never_promoted():
    """Coroutine-style XFER transfer sites are not calls; promotion must
    leave them alone even when they dominate the profile."""
    sources, entry, args, profile, facts = fixture(name="dispatch")
    result = optimize(sources, "i2", entry, profile, facts)
    for decision in result.log["decisions"]:
        if decision["kind"] == "promote-site":
            assert decision["rewrite"].split(" -> ")[0] != "XF"
    machine = result.build()
    machine.start(entry[0], entry[1], *args)
    assert machine.run() == profile["results"]


def test_tampered_image_file_refuses_to_load(tmp_path):
    from repro.fdo import image_document

    sources, entry, _, profile, facts = fixture()
    result = optimize(sources, "i2", entry, profile, facts)
    doc = image_document(result)

    forged = copy.deepcopy(doc)
    forged["image_hash"] = "0" * 32
    with pytest.raises(FdoRefusal, match="stale or was"):
        load_image_document(forged)

    dropped = copy.deepcopy(doc)
    if dropped["rewrite"]["promotions"]:
        dropped["rewrite"]["promotions"].pop()
        with pytest.raises(FdoRefusal):
            load_image_document(dropped)

    with pytest.raises(FdoRefusal, match="not a repro-image/1"):
        load_image_document({"schema": "repro-image/0"})


# -- defect injection: a buggy rewrite cannot ship ---------------------------


@pytest.mark.parametrize(
    ("label", "check_id", "inject"),
    FDO_DEFECT_INJECTIONS,
    ids=[check_id for _, check_id, _ in FDO_DEFECT_INJECTIONS],
)
def test_fdo_defects_are_caught_statically(label, check_id, inject):
    """Plant each FDO defect class in a genuinely optimized image; the
    same check_image gate `repro optimize` runs must refuse it."""
    program = CORPUS["queens"]
    image = build_optimized_image(
        program.sources, program.entry, "i2", tuple(program.args)
    )
    assert check_image(image).ok  # the optimized host starts clean
    assert inject(image), f"no applicable site for {label!r}"
    report = check_image(image)
    diagnostics = report.by_check(check_id)
    assert diagnostics, (
        f"{label}: expected {check_id}, got\n{report.format()}"
    )
    assert not report.ok


# -- the CLI's exit-2 discipline ---------------------------------------------


def write_program(tmp_path, name="calls"):
    path = tmp_path / f"{name}.mesa"
    path.write_text(CORPUS[name].sources[0])
    return str(path)


def cli(argv):
    from repro.cli import main

    return main(argv)


def test_cli_loop_and_refusals(tmp_path, capsys):
    """profile --out → analyze --out → optimize → run --image end to
    end, then each adversarial variant exits 2."""
    source = write_program(tmp_path)
    profile_path = str(tmp_path / "profile.json")
    facts_path = str(tmp_path / "facts.json")
    image_path = str(tmp_path / "opt.json")

    assert cli(["profile", source, "--impl", "i2", "--out", profile_path]) == 0
    doc = json.loads((tmp_path / "profile.json").read_text())
    assert doc["schema"] == "repro-profile/1"
    assert cli(["analyze", source, "--impl", "i2", "--out", facts_path]) == 0
    assert (
        cli(
            [
                "optimize", source, "--impl", "i2",
                "--profile", profile_path, "--facts", facts_path,
                "--out", image_path,
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert cli(["run", "--image", image_path]) == 0
    optimized_out = capsys.readouterr().out
    assert cli(["run", source, "--impl", "i2"]) == 0
    original_out = capsys.readouterr().out
    assert optimized_out.splitlines()[0] == original_out.splitlines()[0]

    # Stale profile: poison the hash, keep everything else.
    stale_path = tmp_path / "stale.json"
    stale_path.write_text(json.dumps(dict(doc, image_hash="0" * 32)))
    assert (
        cli(
            [
                "optimize", source, "--impl", "i2",
                "--profile", str(stale_path), "--facts", facts_path,
                "--out", str(tmp_path / "x.json"),
            ]
        )
        == 2
    )
    # Wrong interest level for the evidence.
    assert (
        cli(
            [
                "optimize", source, "--impl", "i1",
                "--profile", profile_path, "--facts", facts_path,
                "--out", str(tmp_path / "x.json"),
            ]
        )
        == 2
    )
    # Tampered optimized image.
    image_doc = json.loads((tmp_path / "opt.json").read_text())
    image_doc["image_hash"] = "f" * 32
    (tmp_path / "tampered.json").write_text(json.dumps(image_doc))
    assert cli(["run", "--image", str(tmp_path / "tampered.json")]) == 2
    # --args the image's entry does not take.
    assert cli(["run", "--image", image_path, "--args", "1"]) == 2
    # Sources and --image are exclusive; neither is an error too.
    assert cli(["run", source, "--image", image_path]) == 2
    assert cli(["run"]) == 2
    # The profile document summarizes one machine; shards don't compose.
    assert (
        cli(["profile", source, "--shards", "2", "--out", profile_path]) == 2
    )


def test_cli_image_runs_under_jit(tmp_path, capsys):
    source = write_program(tmp_path)
    profile_path = str(tmp_path / "p.json")
    facts_path = str(tmp_path / "f.json")
    image_path = str(tmp_path / "o.json")
    assert cli(["profile", source, "--impl", "i2", "--out", profile_path]) == 0
    assert cli(["analyze", source, "--impl", "i2", "--out", facts_path]) == 0
    capsys.readouterr()
    assert (
        cli(
            [
                "optimize", source, "--impl", "i2",
                "--profile", profile_path, "--facts", facts_path,
                "--out", image_path, "--json",
            ]
        )
        == 0
    )
    log = json.loads(capsys.readouterr().out)
    assert log["schema"] == "repro-fdo/1"
    assert cli(["run", "--image", image_path, "--engine", "jit", "--stats"]) == 0
    jit_out = capsys.readouterr().out
    assert cli(["run", "--image", image_path, "--stats"]) == 0
    interp_out = capsys.readouterr().out
    assert jit_out == interp_out
