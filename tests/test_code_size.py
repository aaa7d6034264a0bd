"""tools/code_size.py counts lines as ``wc -l`` does, and code lines without docstrings."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from code_size import code_lines  # noqa: E402

SOURCE = '''"""Module docstring,

over two lines."""

# a comment
import re  # a comment after code


class Thing:
    """Class docstring."""

    pattern = """a string that is
not a docstring"""

    def method(self):
        """Method docstring."""

        return re.compile(
            self.pattern
        )
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    # import, class, pattern (2 lines), def, return (3 lines)
    assert code_lines(SOURCE) == 8
