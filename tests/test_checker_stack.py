"""Abstract eval-stack verification (section 5.2 transfer-record discipline)."""

from repro.check import (
    CallEffect,
    CheckReport,
    StackRules,
    build_cfg,
    check_image,
    verify_stack_depths,
)
from repro.interp.machineconfig import ArgConvention, MachineConfig
from repro.isa.assembler import Assembler
from repro.isa.opcodes import Op
from repro.isa.program import ModuleCode, Procedure
from repro.lang.linker import link


def no_calls(item):
    raise AssertionError(f"unexpected call instruction {item.instruction}")


def verify(build, entry_depth=0, result_count=0, stack_limit=16, resolver=no_calls):
    asm = Assembler()
    build(asm)
    report = CheckReport()
    cfg = build_cfg(asm.assemble(), report, module="M", procedure="p")
    assert report.diagnostics == [], report.format()
    rules = StackRules(entry_depth, result_count, stack_limit)
    depths = verify_stack_depths(cfg, rules, resolver, report, module="M", procedure="p")
    return report, depths


def hand_module(name, procedures, imports=(), fixups=()):
    """Build a ModuleCode from (name, args, results, build) tuples."""
    module = ModuleCode(name=name, imports=list(imports), fixups=list(fixups))
    for index, (proc_name, args, results, build) in enumerate(procedures):
        asm = Assembler()
        build(asm)
        module.procedures.append(
            Procedure(
                name=proc_name,
                ev_index=index,
                arg_count=args,
                result_count=results,
                frame_words=3 + 4,
                body=asm.assemble(),
            )
        )
    return module


def test_clean_body_reports_depth_at_every_offset():
    def body(asm):
        asm.emit(Op.LI2)
        asm.emit(Op.LI3)
        asm.emit(Op.ADD)
        asm.emit(Op.RET)

    report, depths = verify(body, result_count=1)
    assert report.diagnostics == []
    assert depths == {0: 0, 1: 1, 2: 2, 3: 1}


def test_underflow_is_pinned_to_the_popping_instruction():
    def body(asm):
        asm.emit(Op.LI1)
        asm.emit(Op.ADD)  # pops two, only one there
        asm.emit(Op.RET)

    report, _ = verify(body, result_count=1)
    (diag,) = report.errors
    assert diag.check == "stack-underflow"
    assert diag.offset == 1


def test_overflow_against_the_stack_limit():
    def body(asm):
        for _ in range(5):
            asm.emit(Op.LI1)
        asm.emit(Op.RET)

    report, _ = verify(body, result_count=1, stack_limit=4)
    (diag,) = report.errors
    assert diag.check == "stack-overflow"
    assert diag.offset == 4  # the fifth push


def test_return_record_mismatch():
    def body(asm):
        asm.emit(Op.LI1)
        asm.emit(Op.LI2)
        asm.emit(Op.RET)  # two words on the stack, one promised

    report, _ = verify(body, result_count=1)
    (diag,) = report.errors
    assert diag.check == "return-record-mismatch"
    assert "2" in diag.message and "1" in diag.message


def test_entry_depth_counts_copied_arguments():
    def body(asm):
        asm.emit(Op.ADD)  # consumes the two COPY-convention arguments
        asm.emit(Op.RET)

    report, _ = verify(body, entry_depth=2, result_count=1)
    assert report.diagnostics == []


def test_inconsistent_depth_at_join():
    def body(asm):
        merge = asm.new_label()
        else_arm = asm.new_label()
        asm.emit(Op.LI1)
        asm.jump(Op.JZB, else_arm)
        asm.emit(Op.LI1)
        asm.emit(Op.LI2)  # then-arm leaves two words
        asm.jump(Op.JB, merge)
        asm.bind(else_arm)
        asm.emit(Op.LI3)  # else-arm leaves one
        asm.bind(merge)
        asm.emit(Op.RET)

    report, depths = verify(body, result_count=1)
    assert depths is None
    # Whichever arm reaches the merge first also miscounts at RET, so a
    # return-record-mismatch may accompany the join error.
    assert "inconsistent-depth" in [d.check for d in report.errors]


def test_consistent_join_is_accepted():
    def body(asm):
        merge = asm.new_label()
        else_arm = asm.new_label()
        asm.emit(Op.LI1)
        asm.jump(Op.JZB, else_arm)
        asm.emit(Op.LI6)
        asm.jump(Op.JB, merge)
        asm.bind(else_arm)
        asm.emit(Op.LI7)
        asm.bind(merge)
        asm.emit(Op.RET)

    report, _ = verify(body, result_count=1)
    assert report.diagnostics == []


def test_loop_with_stable_depth():
    def body(asm):
        top = asm.new_label()
        asm.bind(top)
        asm.emit(Op.LL0)
        asm.emit(Op.LI1)
        asm.emit(Op.SUB)
        asm.emit(Op.DUP)
        asm.emit(Op.SL0)
        asm.jump(Op.JNZB, top)
        asm.emit(Op.RET)

    report, _ = verify(body, result_count=0)
    assert report.diagnostics == []


def test_dead_code_warning():
    def body(asm):
        end = asm.new_label()
        asm.jump(Op.JB, end)
        asm.emit(Op.LI1)  # unreachable
        asm.emit(Op.POP)
        asm.bind(end)
        asm.emit(Op.RET)

    report, _ = verify(body)
    assert report.ok
    (diag,) = report.warnings
    assert diag.check == "dead-code"
    assert diag.offset == 2


def test_xf_needs_a_destination_and_leaves_one_word():
    def body(asm):
        asm.emit(Op.LI5)
        asm.emit(Op.XF)  # pops dest; incoming record is one word by convention
        asm.emit(Op.POP)
        asm.emit(Op.RET)

    report, _ = verify(body, result_count=0)
    assert report.diagnostics == []


def test_xf_on_empty_stack_underflows():
    def body(asm):
        asm.emit(Op.XF)
        asm.emit(Op.RET)

    report, _ = verify(body)
    assert [d.check for d in report.errors] == ["stack-underflow"]


def test_call_record_checked_against_resolved_target():
    def resolver(item):
        assert item.instruction.op is Op.LFC
        return CallEffect(arg_count=2, result_count=1, target=None)

    def good(asm):
        asm.emit(Op.LI1)
        asm.emit(Op.LI2)
        asm.emit(Op.LFC, 0)
        asm.emit(Op.RET)

    report, _ = verify(good, result_count=1, resolver=resolver)
    assert report.diagnostics == []

    def short(asm):
        asm.emit(Op.LI1)  # one word where the callee wants two
        asm.emit(Op.LFC, 0)
        asm.emit(Op.RET)

    report, _ = verify(short, result_count=1, resolver=resolver)
    (diag,) = report.errors
    assert diag.check == "call-record-mismatch"
    assert diag.offset == 1


# -- whole-image verification over hand-built code -------------------------------


def check_linked(modules, entry=("Hand", "main"), preset="i2"):
    """``check_image`` over hand-assembled *modules*, linked for *preset*."""
    return check_image(link(modules, MachineConfig.preset(preset), entry))


def other_module():
    """Provides ``Other.f``, the import the hand-built modules name."""

    def f(asm):
        asm.emit(Op.LI0)
        asm.emit(Op.RET)

    return hand_module("Other", [("f", 0, 1, f)])


def test_check_image_accepts_clean_local_calls():
    def helper(asm):
        asm.emit(Op.ADD)
        asm.emit(Op.RET)

    def main(asm):
        asm.emit(Op.LI3)
        asm.emit(Op.LI4)
        asm.emit(Op.LFC, 0)  # helper at EV index 0
        asm.emit(Op.RET)

    module = hand_module("Hand", [("helper", 2, 1, helper), ("main", 0, 1, main)])
    report = check_linked([module])
    assert report.ok, report.format()


def test_check_image_flags_call_record_mismatch():
    def helper(asm):
        asm.emit(Op.ADD)
        asm.emit(Op.RET)

    def main(asm):
        asm.emit(Op.LI3)  # helper wants two arguments
        asm.emit(Op.LFC, 0)
        asm.emit(Op.RET)

    module = hand_module("Hand", [("helper", 2, 1, helper), ("main", 0, 1, main)])
    report = check_linked([module])
    assert [d.check for d in report.errors] == ["call-record-mismatch"]
    assert report.errors[0].procedure == "main"


def test_check_image_flags_bad_ev_and_lv_indices():
    # One bad call per procedure: an unresolvable call abandons the path
    # behind it, so each defect needs its own body to be seen.
    def bad_local(asm):
        asm.emit(Op.LFC, 9)  # no such EV entry
        asm.emit(Op.RET)

    def bad_external(asm):
        asm.emit(Op.EFC3)  # no such import
        asm.emit(Op.RET)

    module = hand_module(
        "Hand",
        [("bad_local", 0, 1, bad_local), ("bad_external", 0, 1, bad_external)],
        imports=[("Other", "f")],
    )
    report = check_linked([module, other_module()], entry=("Hand", "bad_local"))
    assert sorted(d.check for d in report.errors) == ["ev-index", "lv-index"]


def test_check_image_flags_bad_local_slot():
    def main(asm):
        asm.emit(Op.LL7)  # frame has 4 local words
        asm.emit(Op.RET)

    module = hand_module("Hand", [("main", 0, 1, main)])
    assert [d.check for d in check_linked([module]).errors] == ["local-index"]


def test_check_image_rename_convention_enters_empty():
    def main(asm):
        asm.emit(Op.LL0)  # RENAME: arguments arrive in locals, stack empty
        asm.emit(Op.LL1)
        asm.emit(Op.ADD)
        asm.emit(Op.RET)

    module = hand_module("Hand", [("main", 2, 1, main)])
    assert MachineConfig.preset("i4").arg_convention is ArgConvention.RENAME
    report = check_linked([module], preset="i4")
    assert report.ok, report.format()


def test_check_image_unreachable_procedure_warning():
    def orphan(asm):
        asm.emit(Op.LI1)
        asm.emit(Op.RET)

    def main(asm):
        asm.emit(Op.LI0)
        asm.emit(Op.RET)

    module = hand_module("Hand", [("orphan", 0, 1, orphan), ("main", 0, 1, main)])
    report = check_linked([module])
    assert report.ok
    (diag,) = report.by_check("unreachable-procedure")
    assert diag.procedure == "orphan"
