"""Graphviz DOT rendering of diagram prefixes."""

from __future__ import annotations

from .diagram import BratteliPrefix


def export_dot(prefix: BratteliPrefix, name: str = "bratteli") -> str:
    """One node per (level, vertex) labeled with its matrix size, one edge
    per nonzero multiplicity labeled with its value.  Node and edge order is
    deterministic: levels ascending, then vertex index, then target index.
    """
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for n, level in enumerate(prefix.levels):
        lines.append("  { rank=same;")
        for v, size in enumerate(level):
            lines.append(f'    "L{n}_{v}" [label="{size}"];')
        lines.append("  }")
    for n, mat in enumerate(prefix.matrices):
        for j in range(mat.cols):
            for i in range(mat.rows):
                mult = mat.entry(i, j)
                if mult:
                    lines.append(f'  "L{n}_{j}" -> "L{n + 1}_{i}" [label="{mult}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
