"""Product ADTs — composing shared objects into one specification.

Causal consistency is *not composable* (Sec. 4.2): the product of two
causally consistent registers is not a causally consistent register pair.
To even state that, one needs the product as a single ADT — this module
builds it.  ``ProductADT({"x": Register(), "q": FifoQueue()})`` is the
transducer whose state is the tuple of component states and whose methods
are the components' methods prefixed with the component name
(``"x.w"``, ``"q.pop"``, ...).

``MemoryADT`` is (isomorphic to) the product of one register per name —
property-tested in ``tests/test_product.py`` — and the non-composability
witness of ``tests/test_composability.py`` can be replayed through this
class with any component types.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from ..core.adt import AbstractDataType, State
from ..core.operations import Invocation


class ProductADT(AbstractDataType):
    """The product of named component ADTs."""

    def __init__(self, components: Mapping[str, AbstractDataType]) -> None:
        if not components:
            raise ValueError("a product needs at least one component")
        for name in components:
            if "." in name:
                raise ValueError(f"component name {name!r} may not contain '.'")
        self.components: Dict[str, AbstractDataType] = dict(components)
        self.order = tuple(sorted(self.components))
        self.index = {name: i for i, name in enumerate(self.order)}
        inner = ",".join(
            f"{name}:{self.components[name].name}" for name in self.order
        )
        self.name = f"Product[{inner}]"

    # ------------------------------------------------------------------
    def _split(self, invocation: Invocation) -> Tuple[str, Invocation]:
        method = invocation.method
        if "." not in method:
            raise ValueError(
                f"product methods are '<component>.<method>', got {method!r}"
            )
        name, inner_method = method.split(".", 1)
        if name not in self.components:
            known = ", ".join(self.order)
            raise ValueError(f"unknown component {name!r}; known: {known}")
        return name, Invocation(inner_method, invocation.args)

    # ------------------------------------------------------------------
    def initial_state(self) -> State:
        return tuple(self.components[name].initial_state() for name in self.order)

    def transition(self, state: State, invocation: Invocation) -> State:
        name, inner = self._split(invocation)
        i = self.index[name]
        new_component = self.components[name].transition(state[i], inner)
        return state[:i] + (new_component,) + state[i + 1 :]

    def output(self, state: State, invocation: Invocation) -> Any:
        name, inner = self._split(invocation)
        return self.components[name].output(state[self.index[name]], inner)

    def is_update(self, invocation: Invocation) -> bool:
        name, inner = self._split(invocation)
        return self.components[name].is_update(inner)

    def is_query(self, invocation: Invocation) -> bool:
        name, inner = self._split(invocation)
        return self.components[name].is_query(inner)
