"""``broad-except`` — no blanket exception swallowing.

A ``except Exception`` (or bare ``except:`` / ``except BaseException``)
hides exactly the failures this library's contracts are built to make
loud: a seed-parity break surfaces as an assertion somewhere deep in a
backend, a leaked file descriptor as an ``OSError`` at teardown.
Swallowed broadly, both degrade into silent wrong-ness.

The *intentional* broad handlers carry line pragmas with reasons (the
rule ships enabled, not advisory): the service envelope boundary and
shutdown paths in :mod:`repro.service.server` — a daemon must answer
with an ``error`` envelope (or keep stopping) whatever a handler
raised.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import Finding, ModuleContext, Rule, register_rule

_BROAD = {"Exception", "BaseException"}


def _is_broad(type_node) -> bool:
    if type_node is None:  # bare except:
        return True
    if isinstance(type_node, ast.Name) and type_node.id in _BROAD:
        return True
    if isinstance(type_node, ast.Tuple):
        return any(_is_broad(elt) for elt in type_node.elts)
    return False


@register_rule
class BroadExceptRule(Rule):
    id = "broad-except"
    summary = (
        "no `except Exception` / bare `except` outside pragma'd "
        "boundaries (service envelope, probes)"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and _is_broad(node.type):
                what = (
                    "bare `except:`"
                    if node.type is None
                    else "`except "
                    + (ast.unparse(node.type) if node.type else "")
                    + "`"
                )
                yield self.finding(
                    module,
                    node,
                    f"{what} swallows every failure; catch the specific "
                    "exceptions, or pragma this line with a reason if it "
                    "is a real envelope/probe boundary",
                )
