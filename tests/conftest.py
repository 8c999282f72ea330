"""A warning raised by any test under this directory fails that test.

One warning is exempt.  To show a failing property's falsifying example,
hypothesis imports libcst, whose import declares a mypy_extensions.TypedDict
and so warns; as an error, that warning would turn the failure into a pytest
INTERNALERROR and hide the example."""

from pathlib import Path

import pytest

HERE = Path(__file__).parent

# later filters take precedence
WARNING_FILTERS = (
    "error",
    r"ignore:mypy_extensions\.TypedDict is deprecated:DeprecationWarning:libcst\.",
)


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings(*WARNING_FILTERS))
