"""The reach tool's naming and exemption rule, on an inline module.

The profiled pass itself is ``python tests/reach/run.py --check
tests/reach/uncalled.txt`` (its own CI job)."""

import textwrap

from tests.reach.run import definitions

SOURCE = textwrap.dedent('''
    from abc import ABC, abstractmethod


    def helper():
        return 1


    class Shape(ABC):
        @abstractmethod
        def area(self):
            """The area."""

        @abstractmethod
        def perimeter(self):
            """The perimeter."""
            raise NotImplementedError

        def __repr__(self):
            return "Shape()"

        def __str__(self):
            return "shape"

        def __eq__(self, other):
            return self is other

        def scaled(self, factor):
            def inner():
                return factor

            return inner
''')


def test_names_are_qualified_and_first_lines_are_decorators():
    found = {d.name: d for d in definitions(SOURCE)}
    assert list(found) == [
        "helper", "Shape.area", "Shape.perimeter", "Shape.__repr__",
        "Shape.__str__", "Shape.__eq__", "Shape.scaled", "Shape.scaled.inner",
    ]
    lines = SOURCE.splitlines()
    assert lines[found["Shape.area"].first - 1].strip() == "@abstractmethod"
    assert found["Shape.area"].lines == 3


def test_only_reprs_and_docstring_only_abstract_bodies_are_exempt():
    exempt = {d.name for d in definitions(SOURCE) if d.exempt}
    assert exempt == {"Shape.area", "Shape.__repr__", "Shape.__str__"}
