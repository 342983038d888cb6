"""Compiler driver: source text to :class:`ModuleCode`.

``compile_program`` is the usual entry point: it parses every module,
collects cross-module signatures, and generates code for the requested
target.  Per section 2, the target (linkage, argument convention) is
baked into the encoding, so comparing implementations means recompiling —
which is exactly what the benchmark harness does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.interp.machineconfig import ArgConvention, LinkageKind, MachineConfig
from repro.isa.program import ModuleCode
from repro.lang.analysis import ProgramInfo
from repro.lang.codegen import CodegenOptions, generate_module
from repro.lang.parser import parse_module


@dataclass
class CompileOptions:
    """Source-to-encoding choices (a subset of the machine config)."""

    linkage: LinkageKind = LinkageKind.MESA
    arg_convention: ArgConvention = ArgConvention.COPY
    multi_instance: frozenset[str] = frozenset()
    #: Modules to keep behind the flexible EXTERNALCALL binding even
    #: under DIRECT linkage (the section 6/8 hybrid: early-bind "in the
    #: system" modules, stay flexible for code under development).
    flexible_modules: frozenset[str] = frozenset()
    #: Feedback-directed promotions: ``(module, procedure, call_ordinal)``
    #: sites compiled to SDFC/DFC even under MESA/SIMPLE linkage (see
    #: :mod:`repro.fdo`).
    promotions: frozenset[tuple[str, str, int]] = frozenset()

    @classmethod
    def for_config(
        cls,
        config: MachineConfig,
        multi_instance: frozenset[str] = frozenset(),
        flexible_modules: frozenset[str] = frozenset(),
        promotions: frozenset[tuple[str, str, int]] = frozenset(),
    ) -> CompileOptions:
        """The compile options matching a machine configuration."""
        return cls(
            linkage=config.linkage,
            arg_convention=config.arg_convention,
            multi_instance=multi_instance,
            flexible_modules=flexible_modules,
            promotions=promotions,
        )

    def to_codegen(self) -> CodegenOptions:
        return CodegenOptions(
            linkage=self.linkage,
            arg_convention=self.arg_convention,
            multi_instance=self.multi_instance,
            flexible_modules=self.flexible_modules,
            promotions=self.promotions,
        )


def compile_program(
    sources: list[str], options: CompileOptions | None = None
) -> list[ModuleCode]:
    """Compile a whole program (a list of module source texts)."""
    options = options or CompileOptions()
    modules = [parse_module(source) for source in sources]
    info = ProgramInfo.collect(modules)
    return [generate_module(module, info, options.to_codegen()) for module in modules]


def compile_module(
    source: str,
    options: CompileOptions | None = None,
    externals: ProgramInfo | None = None,
) -> ModuleCode:
    """Compile one module; *externals* supplies other modules' signatures."""
    options = options or CompileOptions()
    module = parse_module(source)
    info = externals or ProgramInfo()
    own = ProgramInfo.collect([module])
    merged = ProgramInfo(signatures={**info.signatures, **own.signatures})
    return generate_module(module, merged, options.to_codegen())
