import numpy as np

import pin_platform


def test_platform_names_numpy_simd_and_blas():
    text = pin_platform.platform()
    assert text.startswith(f"numpy {np.__version__}, SIMD ")
    assert ", OpenBLAS " in text


def test_a_pin_message_names_both_platforms():
    assert pin_platform.where("X") == f"recorded on X, running on {pin_platform.platform()}"
