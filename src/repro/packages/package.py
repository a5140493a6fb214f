"""Package and binary models (§2).

A *package* is the APT installation granularity: it bundles standalone
executables, shared libraries, scripts, and configuration.  A
*binary artifact* is one file in a package — an ELF image or an
interpreted script.  The paper's per-package API footprint is the union
of the footprints of the package's standalone executables (§2, "API
footprint").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple


def split_alternatives(dep: str) -> Tuple[str, ...]:
    """Parse one ``Depends:`` entry into its alternatives.

    APT separates alternative dependencies with ``|`` — any one of the
    alternatives satisfies the entry (``mawk | gawk``).  A plain entry
    parses to a single-alternative group, so pre-alternative dependency
    lists round-trip unchanged.
    """
    if "|" not in dep:
        dep = dep.strip()
        return (dep,) if dep else ()
    return tuple(alt for alt in
                 (part.strip() for part in dep.split("|")) if alt)


def dependency_groups(depends: Iterable[str],
                      ) -> Tuple[Tuple[str, ...], ...]:
    """Parse a ``Depends:`` list into AND-of-OR groups.

    Every group must be satisfied; a group is satisfied by any one of
    its alternatives.  Empty entries parse to no group at all.
    """
    groups = []
    for dep in depends:
        alternatives = split_alternatives(dep)
        if alternatives:
            groups.append(alternatives)
    return tuple(groups)


class BinaryKind(Enum):
    """How a file in a package executes."""

    ELF_EXECUTABLE = "elf-executable"      # dynamically linked ET_EXEC/ET_DYN
    ELF_STATIC = "elf-static"              # statically linked ET_EXEC
    SHARED_LIBRARY = "shared-library"      # ET_DYN with SONAME
    SCRIPT = "script"                      # shebang-interpreted


@dataclass
class BinaryArtifact:
    """One file shipped by a package."""

    name: str                     # file name, e.g. "bin/qemu-mips"
    kind: BinaryKind
    data: bytes = b""             # raw file contents (ELF image or script)
    interpreter: Optional[str] = None   # for scripts: "python", "dash", ...

    @property
    def is_elf(self) -> bool:
        return self.kind in (BinaryKind.ELF_EXECUTABLE,
                             BinaryKind.ELF_STATIC,
                             BinaryKind.SHARED_LIBRARY)

    @property
    def is_executable(self) -> bool:
        """Standalone executables contribute to the package footprint."""
        return self.kind in (BinaryKind.ELF_EXECUTABLE,
                             BinaryKind.ELF_STATIC, BinaryKind.SCRIPT)


@dataclass
class Package:
    """One APT package: artifacts plus dependency edges.

    ``depends`` entries may use APT's alternative syntax (``a | b``);
    :meth:`dependency_groups` exposes the parsed AND-of-OR view.
    ``provides`` lists the virtual package names this package
    satisfies (APT ``Provides:``) — a dependency on a virtual name is
    met by any provider.
    """

    name: str
    category: str = "misc"
    artifacts: List[BinaryArtifact] = field(default_factory=list)
    depends: List[str] = field(default_factory=list)
    description: str = ""
    provides: List[str] = field(default_factory=list)

    def dependency_groups(self) -> Tuple[Tuple[str, ...], ...]:
        """The parsed AND-of-OR dependency groups."""
        return dependency_groups(self.depends)

    def executables(self) -> List[BinaryArtifact]:
        return [a for a in self.artifacts if a.is_executable]

    def libraries(self) -> List[BinaryArtifact]:
        return [a for a in self.artifacts
                if a.kind == BinaryKind.SHARED_LIBRARY]

    def elf_artifacts(self) -> List[BinaryArtifact]:
        return [a for a in self.artifacts if a.is_elf]

    def artifact(self, name: str) -> Optional[BinaryArtifact]:
        for candidate in self.artifacts:
            if candidate.name == name:
                return candidate
        return None

    def add(self, artifact: BinaryArtifact) -> None:
        self.artifacts.append(artifact)


@dataclass(frozen=True)
class GroundTruthFootprint:
    """Generator-side record of the APIs a binary was built to use.

    Used only by tests to validate that the analysis pipeline recovers
    what the generator planted — never consumed by the metrics.
    """

    syscalls: Tuple[str, ...] = ()
    ioctls: Tuple[str, ...] = ()
    fcntls: Tuple[str, ...] = ()
    prctls: Tuple[str, ...] = ()
    pseudo_files: Tuple[str, ...] = ()
    libc_symbols: Tuple[str, ...] = ()

    def merged(self, other: "GroundTruthFootprint") -> "GroundTruthFootprint":
        def union(a: Tuple[str, ...], b: Tuple[str, ...]) -> Tuple[str, ...]:
            return tuple(sorted(set(a) | set(b)))
        return GroundTruthFootprint(
            syscalls=union(self.syscalls, other.syscalls),
            ioctls=union(self.ioctls, other.ioctls),
            fcntls=union(self.fcntls, other.fcntls),
            prctls=union(self.prctls, other.prctls),
            pseudo_files=union(self.pseudo_files, other.pseudo_files),
            libc_symbols=union(self.libc_symbols, other.libc_symbols),
        )
