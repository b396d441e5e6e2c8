import sys

import pytest


@pytest.fixture
def lowest_digit_limit():
    # Python's smallest int-to-str digit limit: a 701-digit integer then stands
    # in for one past the default 4300 digits, at a small part of the work
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
